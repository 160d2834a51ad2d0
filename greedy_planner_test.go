package sjos

import (
	"context"
	"testing"
)

// TestGreedyDifferential pins the statistics-free Greedy orderer and DP to
// the brute-force reference on the Table-3 workload shapes. Greedy may pick a
// different join order, but the result set must be identical; run under -race this also shakes out any sharing bug
// in the greedy builder's plans.
func TestGreedyDifferential(t *testing.T) {
	db := datasetCorpus(t, "pers", 1, 1, nil)
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
			opt, err := db.OptimizeContext(context.Background(), pat, m, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", q, m, err)
			}
			ms, _, err := execAll(db, pat, opt.Plan)
			if err != nil {
				t.Fatalf("%s %v: %v", q, m, err)
			}
			if got := canonicalize(ms); !equalStrings(got, want) {
				t.Fatalf("%s %v: %d matches, reference %d",
					q, m, len(got), len(want))
			}
		}
	}
}
