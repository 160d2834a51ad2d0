package sjos_test

import (
	"context"
	"math"
	"testing"

	"sjos"
	"sjos/internal/core"
	"sjos/internal/experiments"
)

// planColdSweep is every plan_cold template at every salary bound from
// 100 000 to 118 000 in steps of 2 000: 80 twigs over the range the
// benchmark draws its bounds from.
func planColdSweep() []experiments.Query {
	var qs []experiments.Query
	for c := 100000; c <= 118000; c += 2000 {
		qs = append(qs, experiments.PlanColdAt(c)...)
	}
	return qs
}

// pointStrings are point_cached's 32 requests over c: the equality probes,
// the salary range, the Table-1 first-k queries and the count.
func pointStrings(tb testing.TB, c *sjos.Corpus) []string {
	tb.Helper()
	var out []string
	for k := range pointClasses {
		out = append(out, pointProbes(tb, c, k)...)
	}
	out = append(out, `//employee[salary>118000]/name`, `//manager/name`)
	for _, q := range firstKQueries(tb) {
		out = append(out, q.Source)
	}
	return out
}

// TestIndexedEstimatorMatchesTwoStep holds the planner's one-pass estimator
// to the two steps it replaces — NewEstimator, which estimates every
// predicated node from the statistics' value sample, then EnableValueIndex,
// which overwrites the eligible ones with the exact probe count — bit for
// bit, on the plan_cold sweep and point_cached's strings over the serving
// corpus.
func TestIndexedEstimatorMatchesTwoStep(t *testing.T) {
	c := sjos.ServingCorpus(t)
	stats, pe := sjos.PlanInputs(c)
	srcs := pointStrings(t, c)
	for _, q := range planColdSweep() {
		srcs = append(srcs, q.Source)
	}
	probed := 0
	for _, src := range srcs {
		pat := sjos.MustParsePattern(src)
		old, err := core.NewEstimator(pat, stats)
		if err != nil {
			t.Fatal(err)
		}
		old.EnableValueIndex(pe)
		est := sjos.PlanEstimator(t, c, pat)
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for u := 0; u < pat.N(); u++ {
			if !same(est.NodeCard(u), old.NodeCard(u)) || !same(est.ScanCard(u), old.ScanCard(u)) || est.ProbeOK(u) != old.ProbeOK(u) {
				t.Errorf("%s node %d (%s): NodeCard/ScanCard/ProbeOK %v/%v/%v, two steps %v/%v/%v", src, u, pat.Nodes[u].Tag,
					est.NodeCard(u), est.ScanCard(u), est.ProbeOK(u), old.NodeCard(u), old.ScanCard(u), old.ProbeOK(u))
			}
			if u > 0 && !same(est.EdgeSelectivity(u), old.EdgeSelectivity(u)) {
				t.Errorf("%s edge %d: selectivity %v, two steps %v", src, u, est.EdgeSelectivity(u), old.EdgeSelectivity(u))
			}
			if est.ProbeOK(u) {
				probed++
			}
		}
	}
	if probed == 0 {
		t.Fatal("no node of the sweep is probe-eligible: the exact counts went untested")
	}
	t.Logf("%d strings, %d probe-eligible nodes", len(srcs), probed)
}

// TestServeMethodNeverCostlierThanFP is the gate on the server's default
// method: on every twig of the plan_cold sweep over the serving corpus, the
// plan it serves is estimated to cost no more than FP's. DPAP-EB's bounded
// search fails it: it strands in sorted plans 1.41-9.95× FP's on template 5
// at bounds 108 000-118 000.
func TestServeMethodNeverCostlierThanFP(t *testing.T) {
	c := sjos.ServingCorpus(t)
	ctx := context.Background()
	worse := 0
	sweep := planColdSweep()
	for _, q := range sweep {
		pat := sjos.MustParsePattern(q.Source)
		serve, err := c.OptimizeContext(ctx, pat, core.ServeMethod, 0)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := c.OptimizeContext(ctx, pat, sjos.MethodFP, 0)
		if err != nil {
			t.Fatal(err)
		}
		if serve.Cost > fp.Cost {
			worse++
			t.Errorf("%s: %v's plan is estimated at %.0f, %.2f× FP's %.0f", q.Source, core.ServeMethod, serve.Cost, serve.Cost/fp.Cost, fp.Cost)
		}
	}
	t.Logf("%v's estimate exceeds FP's in %d of %d cases", core.ServeMethod, worse, len(sweep))
}
