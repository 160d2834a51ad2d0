package sjos_test

import (
	"context"
	"testing"

	"sjos"
	"sjos/internal/core"
	"sjos/internal/cost"
	"sjos/internal/experiments"
	"sjos/internal/plan"
)

// TestOneAccessPathRule holds every optimizer to the one leaf access-path
// rule on the plan_cold twigs over the serving corpus: a leaf is a
// value-index probe exactly when the corpus can serve its predicate by one
// and the probe of its NodeCard postings costs less than scanning its tag's
// ScanCard. DPAP-EB also runs at Te=1, where its search strands and it
// returns the FP plan it falls back to.
func TestOneAccessPathRule(t *testing.T) {
	c := sjos.ServingCorpus(t)
	model := cost.DefaultModel()
	type run struct {
		m  sjos.Method
		te int
	}
	var runs []run
	for _, m := range core.Methods() {
		runs = append(runs, run{m: m})
	}
	runs = append(runs, run{m: sjos.MethodDPAPEB, te: 1}) // after FP, whose plan it falls back to
	probes, fallbacks := 0, 0
	for _, q := range experiments.PlanColdQueries() {
		pat := sjos.MustParsePattern(q.Source)
		est := sjos.PlanEstimator(t, c, pat)
		var fpPlan string
		for _, r := range runs {
			res, err := c.OptimizeContext(context.Background(), pat, r.m, r.te)
			if err != nil {
				t.Fatalf("%s %v: %v", q.ID, r.m, err)
			}
			var walk func(n *plan.Node)
			walk = func(n *plan.Node) {
				if n == nil {
					return
				}
				if u := n.PatternNode; n.Op == plan.OpIndexScan {
					want := est.ProbeOK(u) && model.ValueProbe(est.NodeCard(u)) < model.IndexAccess(est.ScanCard(u))
					if n.ValueIndex != want {
						t.Errorf("%s %v te=%d: leaf %s ValueIndex=%v, the access-path rule says %v",
							q.ID, r.m, r.te, pat.Nodes[u].Tag, n.ValueIndex, want)
					}
					if want {
						probes++
					}
				}
				walk(n.Left)
				walk(n.Right)
			}
			walk(res.Plan)
			switch text := res.Plan.Format(pat); {
			case r.m == sjos.MethodFP:
				fpPlan = text
			case r.te == 1 && text == fpPlan:
				fallbacks++
			}
		}
	}
	if probes == 0 {
		t.Fatal("no leaf on the plan_cold twigs is cheaper to probe: the rule went untested")
	}
	if fallbacks == 0 {
		t.Fatal("DPAP-EB at Te=1 never returned FP's plan: the fallback went untested")
	}
	t.Logf("%d probe leaves; DPAP-EB at Te=1 fell back to FP on %d of %d twigs", probes, fallbacks, len(experiments.PlanColdQueries()))
}
