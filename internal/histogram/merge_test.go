package histogram

import (
	"math"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

func buildDoc(t *testing.T, build func(b *xmltree.Builder)) *xmltree.Document {
	t.Helper()
	b := xmltree.NewBuilder()
	build(b)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// twoParts builds two small documents with overlapping but distinct tag
// sets — "b" only in the first, "c" only in the second, "a" in both.
func twoParts(t *testing.T) (*Stats, *Stats) {
	t.Helper()
	d1 := buildDoc(t, func(b *xmltree.Builder) {
		b.Open("a", "")
		b.Open("b", "1")
		b.Close()
		b.Open("b", "2")
		b.Close()
		b.Close()
	})
	d2 := buildDoc(t, func(b *xmltree.Builder) {
		b.Open("a", "")
		b.Open("c", "x")
		b.Close()
		b.Open("a", "3")
		b.Close()
		b.Close()
	})
	return Build(d1, 8), Build(d2, 8)
}

func TestMultiTagCounts(t *testing.T) {
	s1, s2 := twoParts(t)
	m := Merge([]*Stats{s1, s2})
	if len(m.parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(m.parts))
	}
	for _, tc := range []struct {
		name string
		want float64
	}{{"a", 3}, {"b", 2}, {"c", 1}} {
		tag, ok := m.Lookup(tc.name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", tc.name)
		}
		if got := m.TagCount(tag); got != tc.want {
			t.Errorf("TagCount(%q) = %g, want %g", tc.name, got, tc.want)
		}
	}
	if _, ok := m.Lookup("absent"); ok {
		t.Error("Lookup of absent tag must fail")
	}
}

// TestMultiJoinIsPerPartSum: joins never cross parts, so the merged join
// estimate must be the sum of per-part estimates with the union tags mapped
// back to each part's local IDs.
func TestMultiJoinIsPerPartSum(t *testing.T) {
	s1, s2 := twoParts(t)
	m := Merge([]*Stats{s1, s2})
	ua, _ := m.Lookup("a")
	ub, _ := m.Lookup("b")

	want := 0.0
	for _, p := range []*Stats{s1, s2} {
		la, okA := p.Lookup("a")
		lb, okB := p.Lookup("b")
		if okA && okB {
			want += p.EstimateJoin(la, lb, pattern.Descendant)
		}
	}
	if got := m.EstimateJoin(ua, ub, pattern.Descendant); math.Abs(got-want) > 1e-9 {
		t.Errorf("EstimateJoin = %g, want per-part sum %g", got, want)
	}
	// "b" lives only in part 1, so the a//b estimate must equal part 1's.
	if got, want := m.EstimateJoin(ua, ub, pattern.Descendant), want; got != want {
		t.Errorf("single-part tag: merged estimate %g != part estimate %g", got, want)
	}
	// Selectivity divides the summed joins by the corpus-wide product.
	na, nb := m.TagCount(ua), m.TagCount(ub)
	if got, want := m.Selectivity(ua, ub, pattern.Descendant), want/(na*nb); math.Abs(got-want) > 1e-12 {
		t.Errorf("Selectivity = %g, want %g", got, want)
	}
}

func TestMultiDisjointTagsNeverJoin(t *testing.T) {
	s1, s2 := twoParts(t)
	m := Merge([]*Stats{s1, s2})
	ub, _ := m.Lookup("b") // only part 1
	uc, _ := m.Lookup("c") // only part 2
	if got := m.EstimateJoin(ub, uc, pattern.Descendant); got != 0 {
		t.Errorf("tags from different parts must never join, got %g", got)
	}
	if got := m.Selectivity(ub, uc, pattern.Descendant); got != 0 {
		t.Errorf("selectivity across parts must be 0, got %g", got)
	}
}

// TestMultiPredicateWeighting: the merged predicate selectivity is the
// population-weighted average of the per-part selectivities.
func TestMultiPredicateWeighting(t *testing.T) {
	s1, s2 := twoParts(t)
	m := Merge([]*Stats{s1, s2})
	ua, _ := m.Lookup("a")
	la1, _ := s1.Lookup("a")
	la2, _ := s2.Lookup("a")
	n1, n2 := s1.TagCount(la1), s2.TagCount(la2)
	p1 := s1.PredicateSelectivity(la1, pattern.CmpEq, "3")
	p2 := s2.PredicateSelectivity(la2, pattern.CmpEq, "3")
	want := (n1*p1 + n2*p2) / (n1 + n2)
	if got := m.PredicateSelectivity(ua, pattern.CmpEq, "3"); math.Abs(got-want) > 1e-12 {
		t.Errorf("PredicateSelectivity = %g, want weighted %g", got, want)
	}
	if got := m.PredicateSelectivity(ua, pattern.CmpNone, ""); got != 1 {
		t.Errorf("CmpNone selectivity = %g, want 1", got)
	}
}

func TestMultiDeterministicTagIDs(t *testing.T) {
	s1, s2 := twoParts(t)
	a := Merge([]*Stats{s1, s2})
	b := Merge([]*Stats{s1, s2})
	for _, name := range []string{"a", "b", "c"} {
		ta, _ := a.Lookup(name)
		tb, _ := b.Lookup(name)
		if ta != tb {
			t.Fatalf("union TagID for %q differs across Merge calls: %d vs %d", name, ta, tb)
		}
	}
}

// TestMergeSkipsNilParts: a nil part (a shard whose stats snapshot was
// momentarily a merged view during a concurrent rebuild) must contribute
// nothing — the old code dereferenced it and panicked.
func TestMergeSkipsNilParts(t *testing.T) {
	s1, s2 := twoParts(t)
	m := Merge([]*Stats{s1, nil, s2, nil})
	if len(m.parts) != 2 {
		t.Fatalf("parts = %d, want 2 (nil parts skipped)", len(m.parts))
	}
	ref := Merge([]*Stats{s1, s2})
	for _, name := range []string{"a", "b", "c"} {
		gt, ok := m.Lookup(name)
		rt, rok := m.Lookup(name)
		if !ok || !rok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		if got, want := m.TagCount(gt), ref.TagCount(rt); got != want {
			t.Errorf("TagCount(%q) = %g, want %g", name, got, want)
		}
	}
	if allNil := Merge([]*Stats{nil, nil}); len(allNil.parts) != 0 {
		t.Fatalf("all-nil merge parts = %d, want 0", len(allNil.parts))
	}
}
