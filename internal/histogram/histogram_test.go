package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// exactJoin counts the true number of joining pairs by brute force.
func exactJoin(d *xmltree.Document, a, b xmltree.TagID, ax pattern.Axis) int {
	n := 0
	for _, x := range d.NodesWithTag(a) {
		for _, y := range d.NodesWithTag(b) {
			switch ax {
			case pattern.Descendant:
				if d.IsAncestor(x, y) {
					n++
				}
			case pattern.Child:
				if d.IsParent(x, y) {
					n++
				}
			}
		}
	}
	return n
}

func TestProbLess(t *testing.T) {
	cases := []struct {
		a, b, c, d float64
		want       float64
	}{
		{0, 1, 2, 3, 1},   // X entirely below Y
		{2, 3, 0, 1, 0},   // X entirely above Y
		{0, 1, 0, 1, 0.5}, // identical intervals
		{0, 2, 1, 3, 0.875},
		{0, 4, 1, 3, 0.5},
	}
	for _, c := range cases {
		got := probLess(c.a, c.b, c.c, c.d)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("probLess(%v,%v,%v,%v) = %v, want %v", c.a, c.b, c.c, c.d, got, c.want)
		}
	}
}

func TestProbLessMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := r.Float64() * 10
		b := a + r.Float64()*10 + 1e-6
		c := r.Float64() * 10
		d := c + r.Float64()*10 + 1e-6
		want := probLess(a, b, c, d)
		hits := 0
		const n = 20000
		for i := 0; i < n; i++ {
			x := a + r.Float64()*(b-a)
			y := c + r.Float64()*(d-c)
			if x < y {
				hits++
			}
		}
		got := float64(hits) / n
		return math.Abs(got-want) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateExactWithFineGrid(t *testing.T) {
	// With one position per bucket, cell-pair estimation degenerates to
	// exact counting: every cell holds nodes of a single (start,end) pair
	// and probLess is 0/1... except equal-coordinate comparisons, which
	// cannot occur across distinct nodes. So the estimate must be exact.
	rng := rand.New(rand.NewSource(9))
	d := xmltree.RandomDocument(rng, 60, []string{"a", "b", "c"})
	s := Build(d, int(d.MaxPos())+1)
	for _, aTag := range []string{"a", "b", "c"} {
		for _, bTag := range []string{"a", "b", "c"} {
			ta, _ := d.LookupTag(aTag)
			tb, _ := d.LookupTag(bTag)
			got := s.EstimateJoin(ta, tb, pattern.Descendant)
			want := float64(exactJoin(d, ta, tb, pattern.Descendant))
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("%s//%s: estimate %v, want %v", aTag, bTag, got, want)
			}
		}
	}
}

func TestEstimateReasonableOnRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		d := xmltree.RandomDocument(rng, 400, []string{"a", "b", "c", "d"})
		s := Build(d, 0)
		ta, _ := d.LookupTag("a")
		tb, _ := d.LookupTag("b")
		est := s.EstimateJoin(ta, tb, pattern.Descendant)
		exact := float64(exactJoin(d, ta, tb, pattern.Descendant))
		// The estimate can never exceed the Cartesian product and must
		// be non-negative.
		if est < 0 || est > s.TagCount(ta)*s.TagCount(tb)+1e-9 {
			t.Fatalf("trial %d: estimate %v out of range", trial, est)
		}
		// Loose accuracy band: within 5x or small absolute error (these
		// are coarse histograms on adversarially random trees).
		if exact > 20 && (est > exact*5 || est < exact/5) {
			t.Errorf("trial %d: estimate %v far from exact %v", trial, est, exact)
		}
	}
}

func TestParentChildBelowDescendant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := xmltree.RandomDocument(rng, 500, []string{"a", "b"})
	s := Build(d, 0)
	ta, _ := d.LookupTag("a")
	tb, _ := d.LookupTag("b")
	desc := s.EstimateJoin(ta, tb, pattern.Descendant)
	child := s.EstimateJoin(ta, tb, pattern.Child)
	if child < 0 || child > desc+1e-9 {
		t.Fatalf("child estimate %v should be within [0, descendant estimate %v]", child, desc)
	}
}

func TestSelectivity(t *testing.T) {
	d, err := xmltree.ParseString(`<db><a><b/><b/></a><a><b/></a><c/></db>`)
	if err != nil {
		t.Fatal(err)
	}
	s := Build(d, int(d.MaxPos())+1)
	ta, _ := d.LookupTag("a")
	tb, _ := d.LookupTag("b")
	sel := s.Selectivity(ta, tb, pattern.Descendant)
	// exact: 3 joining pairs over 2*3 = 0.5
	if math.Abs(sel-0.5) > 1e-9 {
		t.Fatalf("selectivity = %v, want 0.5", sel)
	}
	// Empty side.
	if got := s.Selectivity(ta, xmltree.TagID(99), pattern.Descendant); got != 0 {
		t.Fatalf("selectivity with unknown tag = %v", got)
	}
}

// TestEstimateJoinName estimates a join by tag names: Lookup resolves each
// name, and refuses one the document does not have.
func TestEstimateJoinName(t *testing.T) {
	d, _ := xmltree.ParseString(`<db><a><b/></a></db>`)
	s := Build(d, 0)
	if _, ok := s.Lookup("nosuch"); ok {
		t.Fatal("unknown tag resolved")
	}
	ta, okA := s.Lookup("a")
	tb, okB := s.Lookup("b")
	if !okA || !okB {
		t.Fatal("document tags not resolved")
	}
	if v := s.EstimateJoin(ta, tb, pattern.Child); v <= 0 {
		t.Fatalf("EstimateJoin(a, b) = %v", v)
	}
}

// TestEvalPredicate holds the estimator's sample evaluation to the shared
// predicate semantics: over a tag whose every value is v, the selectivity of
// (op, rhs) is 1 when v satisfies it and the 1/count floor when it does not.
func TestEvalPredicate(t *testing.T) {
	const copies = 4
	cases := []struct {
		v    string
		op   pattern.CmpOp
		rhs  string
		want bool
	}{
		{"42", pattern.CmpEq, "42", true},
		{"42", pattern.CmpEq, "042", true}, // numeric comparison
		{"42", pattern.CmpNe, "41", true},
		{"9", pattern.CmpLt, "10", true}, // numeric, not lexicographic
		{"abc", pattern.CmpLt, "abd", true},
		{"10", pattern.CmpGe, "10", true},
		{"3.5", pattern.CmpGt, "3", true},
		{"hello world", pattern.CmpContains, "lo wo", true},
		{"hello", pattern.CmpContains, "xyz", false},
		{"x", pattern.CmpNone, "", true},
		{"b", pattern.CmpLe, "a", false},
	}
	for _, c := range cases {
		b := xmltree.NewBuilder()
		b.Open("db", "")
		for i := 0; i < copies; i++ {
			b.Leaf("v", c.v)
		}
		b.Close()
		d := b.MustFinish()
		s := Build(d, 0)
		tv, _ := d.LookupTag("v")
		want := 1.0 / copies
		if c.want {
			want = 1
		}
		if got := s.PredicateSelectivity(tv, c.op, c.rhs); got != want {
			t.Errorf("(%q, %v, %q): selectivity %v, want %v", c.v, c.op, c.rhs, got, want)
		}
	}
}

func TestPredicateSelectivity(t *testing.T) {
	b := xmltree.NewBuilder()
	b.Open("db", "")
	for i := 0; i < 100; i++ {
		v := "common"
		if i%10 == 0 {
			v = "rare"
		}
		b.Leaf("item", v)
	}
	b.Close()
	d := b.MustFinish()
	s := Build(d, 0)
	ti, _ := d.LookupTag("item")
	sel := s.PredicateSelectivity(ti, pattern.CmpEq, "rare")
	if sel < 0.02 || sel > 0.3 {
		t.Fatalf("selectivity of rare = %v, want ≈ 0.1", sel)
	}
	if got := s.PredicateSelectivity(ti, pattern.CmpNone, ""); got != 1 {
		t.Fatalf("CmpNone selectivity = %v", got)
	}
	// Absent value gets the 1/count floor, never zero.
	if got := s.PredicateSelectivity(ti, pattern.CmpEq, "absent"); got <= 0 {
		t.Fatalf("absent-value selectivity = %v", got)
	}
	// Tag with no values at all.
	td, _ := d.LookupTag("db")
	if got := s.PredicateSelectivity(td, pattern.CmpEq, "x"); got <= 0 || got > 1 {
		t.Fatalf("no-sample selectivity = %v", got)
	}
}

func TestLevelsTracked(t *testing.T) {
	d, _ := xmltree.ParseString(`<a><b><a><b/></a></b></a>`)
	s := Build(d, 0)
	ta, _ := d.LookupTag("a")
	levels := s.sortedLevels(ta)
	if len(levels) != 2 || levels[0] != 0 || levels[1] != 2 {
		t.Fatalf("levels of a = %v", levels)
	}
}
