package sjos

import (
	"context"
	"fmt"
	"testing"

	"sjos/internal/core"
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/plancache"
)

// TestGreedyDifferential pins the statistics-free Greedy orderer and DP to
// the brute-force reference on the Table-3 workload shapes, across serial and
// parallel execution. Greedy may pick a different join order, but the result
// set must be identical; run under -race this also shakes out any sharing bug
// in the greedy builder's plans.
func TestGreedyDifferential(t *testing.T) {
	db, err := GenerateDataset("pers", 1, 1, nil)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	queries := []string{
		"//manager[.//employee/name]//manager/department/name",
		"//manager//manager//manager//manager//manager/department/name",
		"//manager[.//employee/name][department/name]//manager/name",
		"//department/employee/name",
	}
	for _, q := range queries {
		pat := MustParsePattern(q)
		want := canonicalize(referenceMatches(db, pat))
		for _, workers := range []int{0, 4} {
			h := db
			if workers > 0 {
				h = db.WithParallelism(workers)
			}
			for _, m := range []Method{MethodDP, MethodGreedy} {
				res, err := h.QueryPatternContext(context.Background(), pat, QueryOptions{
					ExecOptions: ExecOptions{Method: m, NoCache: true},
				})
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", q, m, workers, err)
				}
				if got := canonicalize(res.Matches); !equalStrings(got, want) {
					t.Fatalf("%s %v workers=%d: %d matches, reference %d",
						q, m, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestGreedyFromStatsMatchesOptimize asserts the two greedy entry points —
// the estimator-backed core.Optimize(MethodGreedy) and the direct
// stats-surface fast path GreedyFromStats — build the identical plan, so
// the fast path cannot drift from the registered method.
func TestGreedyFromStatsMatchesOptimize(t *testing.T) {
	db, err := GenerateDataset("pers", 1, 1, nil)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	stats, _ := db.svc.snapshot()
	model := db.Model()
	for _, q := range []string{
		"//manager[.//employee/name]//manager/department/name",
		"//manager//manager//manager//manager//manager/department/name",
		"//department/employee[name]",
	} {
		pat := MustParsePattern(q)
		est, err := core.NewEstimator(pat, stats)
		if err != nil {
			t.Fatalf("%s: NewEstimator: %v", q, err)
		}
		viaOpt, err := core.Optimize(context.Background(), pat, est, model, core.MethodGreedy, nil)
		if err != nil {
			t.Fatalf("%s: Optimize: %v", q, err)
		}
		direct, err := core.GreedyFromStats(context.Background(), pat, stats, nil, model)
		if err != nil {
			t.Fatalf("%s: GreedyFromStats: %v", q, err)
		}
		if of, df := viaOpt.Plan.Format(pat), direct.Plan.Format(pat); of != df {
			t.Fatalf("%s: plans differ\nOptimize:\n%s\nGreedyFromStats:\n%s", q, of, df)
		}
		if viaOpt.Cost != direct.Cost {
			t.Fatalf("%s: cost %g vs %g", q, viaOpt.Cost, direct.Cost)
		}
	}
}

// scaleEstimates multiplies every operator's cardinality estimate in a plan
// tree, simulating a cached plan whose statistics have gone badly stale.
func scaleEstimates(n *plan.Node, by float64) {
	if n == nil {
		return
	}
	n.EstCard *= by
	scaleEstimates(n.Left, by)
	scaleEstimates(n.Right, by)
}

// TestDriftEvictionReplansOnce is the adaptive-loop regression test: a
// cached plan whose estimates are grossly wrong must be evicted after one
// traced execution, re-planned exactly once, and then served from cache
// again — and the once-per-key guard must suppress a second eviction of the
// same shape at the same statistics version.
func TestDriftEvictionReplansOnce(t *testing.T) {
	db, err := GenerateDataset("pers", 1, 1, nil)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	pat := MustParsePattern("//manager//employee/name")
	traced := QueryOptions{ExecOptions: ExecOptions{Trace: true}}

	run := func(step string, wantCached bool) *QueryResult {
		res, err := db.QueryPatternContext(context.Background(), pat, traced)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if res.CachedPlan != wantCached {
			t.Fatalf("%s: CachedPlan=%v, want %v", step, res.CachedPlan, wantCached)
		}
		return res
	}

	run("cold", false)
	want := canonicalize(run("warm", true).Matches)
	if db.Metrics().Query.DriftEvictions != 0 {
		t.Fatalf("accurate plan evicted: %d drift evictions", db.Metrics().Query.DriftEvictions)
	}

	// Poison the cached entry through its real key: the cache stores the
	// canonical plan by pointer, so scaling its estimates in place is
	// exactly what stale statistics look like to the drift check.
	poison := func(step string) {
		_, ver := db.svc.snapshot()
		fp, _ := pattern.Fingerprint(pat)
		k := plancache.Key{Fingerprint: fp, Method: int(MethodDP), StatsVersion: ver}
		cp, ok := db.svc.cache.Get(k)
		if !ok {
			t.Fatalf("%s: no cache entry under reconstructed key %+v", step, k)
		}
		scaleEstimates(cp.plan, 1e9)
	}

	poison("poison")
	got := run("drifted", true) // served by the poisoned plan, then evicted
	if !equalStrings(canonicalize(got.Matches), want) {
		t.Fatalf("drifted: results changed: %d vs %d matches", len(got.Matches), len(want))
	}
	if n := db.Metrics().Query.DriftEvictions; n != 1 {
		t.Fatalf("after drifted run: %d drift evictions, want 1", n)
	}

	// Evicted entry forces exactly one re-plan; the fresh plan then serves
	// from cache with clean estimates.
	run("replanned", false)
	run("clean", true)
	if n := db.Metrics().Query.DriftEvictions; n != 1 {
		t.Fatalf("after re-plan: %d drift evictions, want 1", n)
	}

	// The once-per-key guard: poisoning the same shape again at the same
	// statistics version must not evict a second time.
	poison("re-poison")
	res := run("suppressed", true)
	if n := db.Metrics().Query.DriftEvictions; n != 1 {
		t.Fatalf("guard failed: %d drift evictions, want 1", n)
	}
	if !equalStrings(canonicalize(res.Matches), want) {
		t.Fatalf("suppressed: results changed")
	}
	// The suppressed entry stays cached (only the eviction is skipped).
	if r := run("still-cached", true); fmt.Sprint(len(r.Matches)) != fmt.Sprint(len(want)) {
		t.Fatalf("still-cached: %d matches, want %d", len(r.Matches), len(want))
	}
}
