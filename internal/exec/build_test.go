package exec

import (
	"math/rand"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

func TestSortOperator(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	// Desc join output is ordered by name; sorting by manager re-orders.
	j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
	s, err := NewSort(j, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := s.Schema().Col(0)
	for i := 1; i < len(out); i++ {
		if doc.Start(out[i][col]) < doc.Start(out[i-1][col]) {
			t.Fatal("sort output not ordered")
		}
	}
	if ctx.Stats.SortedTuples != len(out) {
		t.Errorf("SortedTuples = %d, want %d", ctx.Stats.SortedTuples, len(out))
	}
	if _, err := NewSort(NewIndexScan(pat, 0), 3); err == nil {
		t.Fatal("sort by absent column accepted")
	}
}

func TestIndexScanPredicate(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse(`//name[. = "carol"]`)
	sc := NewIndexScan(pat, 0)
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d carols, want 1", len(out))
	}
	if doc.Value(out[0][0]) != "carol" {
		t.Fatalf("matched value %q", doc.Value(out[0][0]))
	}
	// ScannedTuples counts pre-filter work (the f_I cost term).
	nm, _ := doc.LookupTag("name")
	if ctx.Stats.ScannedTuples != doc.TagCount(nm) {
		t.Errorf("ScannedTuples = %d, want %d", ctx.Stats.ScannedTuples, doc.TagCount(nm))
	}
}

func TestBuildAndRunFullPlan(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee/name]//department/name")
	// Bushy pipelined plan: (department Anc name) => by department;
	// (employee Anc name) => by employee; (manager Anc emp-branch);
	// then Anc with dept-branch.
	dn := plan.NewJoin(plan.NewIndexScan(3), plan.NewIndexScan(4), 3, 4, pattern.Child, plan.AlgoAnc)
	en := plan.NewJoin(plan.NewIndexScan(1), plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoAnc)
	men := plan.NewJoin(plan.NewIndexScan(0), en, 0, 1, pattern.Descendant, plan.AlgoAnc)
	full := plan.NewJoin(men, dn, 0, 3, pattern.Descendant, plan.AlgoAnc)
	if err := full.Validate(pat, false); err != nil {
		t.Fatalf("test plan invalid: %v", err)
	}
	ctx := newCtx(t, doc)
	got, err := tuples(Run(ctx, pat, full))
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceMatches(doc, pat)
	if !sortedEq(got, want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("test should produce matches")
	}
	op, err := Build(pat, full)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("Count = %d, want %d", n, len(want))
	}
}

func TestBuildRejectsBadPlans(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	if _, err := Build(pat, &plan.Node{Op: plan.OpIndexScan, PatternNode: 9}); err == nil {
		t.Fatal("out-of-range scan accepted")
	}
	if _, err := Build(pat, &plan.Node{Op: plan.Op(99)}); err == nil {
		t.Fatal("unknown operator accepted")
	}
	bad := plan.NewSort(plan.NewIndexScan(0), 1) // sort by column not present
	if _, err := Build(pat, bad); err == nil {
		t.Fatal("sort by absent column accepted")
	}
	probe := plan.NewIndexScan(0)
	probe.ValueIndex = true // //a has no predicate to probe with
	if _, err := Build(pat, probe); err == nil {
		t.Fatal("value-index scan of a predicate-free node accepted")
	}
}

// TestPlansAgreeOnRandomDocuments executes several structurally different
// valid plans for the same 4-node pattern and checks they all produce the
// reference result multiset.
func TestPlansAgreeOnRandomDocuments(t *testing.T) {
	pat := pattern.MustParse("//a[.//b/c]//d") // a=0 b=1 c=2 d=3
	plans := []*plan.Node{
		// Fully pipelined bushy: ((b Anc c) under a via Anc) Anc d.
		plan.NewJoin(
			plan.NewJoin(plan.NewIndexScan(0),
				plan.NewJoin(plan.NewIndexScan(1), plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoAnc),
				0, 1, pattern.Descendant, plan.AlgoAnc),
			plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoAnc),
		// Left-deep with sorts: ((a Desc b) ⋈ c) sorted, then d.
		plan.NewJoin(
			plan.NewSort(
				plan.NewJoin(
					plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc),
					plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoDesc),
				0),
			plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoDesc),
		// Bushy with both composites: {a,d} ⋈ {b,c}.
		plan.NewJoin(
			plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoAnc),
			plan.NewJoin(plan.NewIndexScan(1), plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoAnc),
			0, 1, pattern.Descendant, plan.AlgoAnc),
	}
	for i, p := range plans {
		if err := p.Validate(pat, false); err != nil {
			t.Fatalf("plan %d invalid: %v", i, err)
		}
	}
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		doc := xmltree.RandomDocument(rng, 2+rng.Intn(150), []string{"a", "b", "c", "d"})
		want := ReferenceMatches(doc, pat)
		for i, p := range plans {
			got, err := tuples(Run(newCtx(t, doc), pat, p))
			if err != nil {
				t.Fatalf("trial %d plan %d: %v", trial, i, err)
			}
			if !sortedEq(got, want) {
				t.Fatalf("trial %d plan %d: got %d matches, want %d", trial, i, len(got), len(want))
			}
		}
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(2, 0)
	if s.Width() != 2 {
		t.Fatalf("Width = %d", s.Width())
	}
	if c, ok := s.Col(0); !ok || c != 1 {
		t.Fatalf("Col(0) = %d,%v", c, ok)
	}
	if _, ok := s.Col(7); ok {
		t.Fatal("Col(7) should be absent")
	}
	st := s.Concat(NewSchema(1))
	if st.Width() != 3 {
		t.Fatalf("concat width = %d", st.Width())
	}
	if got := Normalize(st, 3, Tuple{10, 20, 30}); got[0] != 20 || got[1] != 30 || got[2] != 10 {
		t.Fatalf("Normalize = %v", got)
	}
}

func TestLimitOperator(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
	full, err := Drain(newCtx(t, doc), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3 {
		t.Fatalf("need >= 3 matches, have %d", len(full))
	}
	for _, n := range []int{0, 1, 3, len(full), len(full) + 5, -2} {
		j2, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
		got, err := Drain(newCtx(t, doc), NewLimit(j2, n))
		if err != nil {
			t.Fatal(err)
		}
		want := n
		if n < 0 {
			want = 0
		}
		if want > len(full) {
			want = len(full)
		}
		if len(got) != want {
			t.Fatalf("limit %d: got %d tuples, want %d", n, len(got), want)
		}
	}
}
