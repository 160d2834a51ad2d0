package core

import (
	"context"

	"reflect"
	"testing"

	"sjos/internal/exec"
	"sjos/internal/pattern"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// checkPlansProduceReference optimizes pat with every method and verifies
// each chosen plan executes to the brute-force reference result.
func checkPlansProduceReference(t *testing.T, doc *xmltree.Document, pat *pattern.Pattern, est *Estimator) {
	t.Helper()
	st, err := storage.BuildStore(doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := exec.ReferenceMatches(doc, pat)
	exec.SortCanonical(want)
	for _, m := range allMethods() {
		r, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := r.Plan.Validate(pat, true); err != nil {
			t.Fatalf("%v: invalid plan: %v", m, err)
		}
		set, err := exec.Run(&exec.Context{Doc: doc, Store: st}, pat, r.Plan)
		if err != nil {
			t.Fatalf("%v: execution: %v", m, err)
		}
		got := set.Tuples()
		// The physical ordering promise: the root's OrderedBy column
		// arrives sorted by document position.
		if col := r.Plan.OrderedBy; col >= 0 && col < pat.N() {
			for i := 1; i < len(got); i++ {
				if doc.Start(got[i][col]) < doc.Start(got[i-1][col]) {
					t.Fatalf("%v: output not ordered by node %d at row %d\n%s",
						m, r.Plan.OrderedBy, i, r.Plan.Format(pat))
				}
			}
		}
		exec.SortCanonical(got)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: plan produced %d matches, reference %d\n%s",
				m, len(got), len(want), r.Plan.Format(pat))
		}
	}
}
