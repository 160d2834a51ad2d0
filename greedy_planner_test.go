package sjos

import (
	"context"
	"testing"

	"sjos/internal/core"
)

// TestGreedyDifferential pins the statistics-free Greedy orderer and DP to
// the brute-force reference on the Table-3 workload shapes. Greedy may pick a
// different join order, but the result set must be identical; run under -race this also shakes out any sharing bug
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
		for _, m := range []Method{MethodDP, MethodGreedy} {
			res, err := db.QueryPatternContext(context.Background(), pat, QueryOptions{
				ExecOptions: ExecOptions{Method: m, NoCache: true},
			})
			if err != nil {
				t.Fatalf("%s %v: %v", q, m, err)
			}
			if got := canonicalize(res.Matches); !equalStrings(got, want) {
				t.Fatalf("%s %v: %d matches, reference %d",
					q, m, len(got), len(want))
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
	stats, _ := db.c.svc.snapshot()
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
