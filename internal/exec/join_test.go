package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// newCtx builds an execution context over doc with a generous buffer pool.
// It carries a private scratch, so a test may Open and pull operators by
// hand; a driver (Collect, Count, Drain) swaps in a pooled one for its run.
func newCtx(t testing.TB, doc *xmltree.Document) *Context {
	t.Helper()
	st, err := storage.BuildStore(doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &Context{Doc: doc, Store: st, scratch: new(scratch)}
}

const personnelXML = `<db>
  <manager><name>alice</name>
    <employee><name>bob</name></employee>
    <manager><name>carol</name>
      <department><name>tools</name></department>
      <employee><name>eve</name></employee>
    </manager>
  </manager>
  <manager><name>dan</name>
    <department><name>ops</name></department>
  </manager>
</db>`

func personnelDoc(t testing.TB) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(personnelXML)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runEdgeJoin joins the 2-node pattern "anc axis desc" with the given
// algorithm and returns normalised, canonically sorted results.
func runEdgeJoin(t *testing.T, doc *xmltree.Document, anc, desc string, ax pattern.Axis, algo plan.Algo) []Tuple {
	t.Helper()
	src := "//" + anc + "/" + desc
	if ax == pattern.Descendant {
		src = "//" + anc + "//" + desc
	}
	pat := pattern.MustParse(src)
	left := NewIndexScan(pat, 0)
	right := NewIndexScan(pat, 1)
	j, err := NewStackTreeJoin(left, right, 0, 1, ax, algo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	norm := NormalizeAll(j.Schema(), 2, out)
	return norm
}

func refEdgeJoin(doc *xmltree.Document, anc, desc string, ax pattern.Axis) []Tuple {
	src := "//" + anc + "/" + desc
	if ax == pattern.Descendant {
		src = "//" + anc + "//" + desc
	}
	return ReferenceMatches(doc, pattern.MustParse(src))
}

func sortedEq(a, b []Tuple) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	SortCanonical(a)
	SortCanonical(b)
	return reflect.DeepEqual(a, b)
}

func TestStackTreeMatchesReferenceOnPersonnel(t *testing.T) {
	doc := personnelDoc(t)
	for _, ax := range []pattern.Axis{pattern.Child, pattern.Descendant} {
		for _, algo := range []plan.Algo{plan.AlgoDesc, plan.AlgoAnc} {
			for _, edge := range [][2]string{
				{"manager", "employee"},
				{"manager", "manager"},
				{"manager", "name"},
				{"db", "department"},
				{"employee", "name"},
			} {
				got := runEdgeJoin(t, doc, edge[0], edge[1], ax, algo)
				want := refEdgeJoin(doc, edge[0], edge[1], ax)
				if !sortedEq(got, want) {
					t.Errorf("%s %v %s via %v: got %d pairs, want %d",
						edge[0], ax, edge[1], algo, len(got), len(want))
				}
			}
		}
	}
}

func TestDescOutputOrderedByDescendant(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no output")
	}
	col, _ := j.Schema().Col(1)
	for i := 1; i < len(out); i++ {
		if doc.Start(out[i][col]) < doc.Start(out[i-1][col]) {
			t.Fatalf("output not ordered by descendant at %d", i)
		}
	}
}

func TestAncOutputOrderedByAncestor(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pattern.Descendant, plan.AlgoAnc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no output")
	}
	col, _ := j.Schema().Col(0)
	for i := 1; i < len(out); i++ {
		if doc.Start(out[i][col]) < doc.Start(out[i-1][col]) {
			t.Fatalf("output not ordered by ancestor at %d", i)
		}
	}
	if ctx.Stats.BufferedPairs != len(out) {
		t.Errorf("BufferedPairs = %d, want %d", ctx.Stats.BufferedPairs, len(out))
	}
}

// TestStackTreeRandomDocs is the core property test: on random documents,
// both join variants agree with brute force for both axes.
func TestStackTreeRandomDocs(t *testing.T) { stackTreeRandomDocs(t, 77) }

func stackTreeRandomDocs(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"a", "b", "c"}
	for trial := 0; trial < 120; trial++ {
		doc := xmltree.RandomDocument(rng, 2+rng.Intn(120), tags)
		for _, ax := range []pattern.Axis{pattern.Child, pattern.Descendant} {
			for _, algo := range []plan.Algo{plan.AlgoDesc, plan.AlgoAnc} {
				a := tags[rng.Intn(len(tags))]
				b := tags[rng.Intn(len(tags))]
				got := runEdgeJoin(t, doc, a, b, ax, algo)
				want := refEdgeJoin(doc, a, b, ax)
				if !sortedEq(got, want) {
					t.Fatalf("trial %d: %s %v %s via %v: got %d, want %d",
						trial, a, ax, b, algo, len(got), len(want))
				}
			}
		}
	}
}

// TestJoinOverTupleStreams joins three pattern nodes, exercising joins whose
// inputs are join outputs (tuple streams with duplicate key nodes).
func TestJoinOverTupleStreams(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	// Plan: (manager Anc-join employee) ordered by manager, then
	// Anc-join name, ordered by manager.
	me, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pattern.Descendant, plan.AlgoAnc)
	if err != nil {
		t.Fatal(err)
	}
	men, err := NewStackTreeJoin(me, NewIndexScan(pat, 2), 0, 2, pattern.Descendant, plan.AlgoAnc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, men)
	if err != nil {
		t.Fatal(err)
	}
	got := NormalizeAll(men.Schema(), 3, out)
	want := ReferenceMatches(doc, pat)
	if !sortedEq(got, want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	// Ordered by manager throughout.
	for i := 1; i < len(out); i++ {
		c, _ := men.Schema().Col(0)
		if doc.Start(out[i][c]) < doc.Start(out[i-1][c]) {
			t.Fatal("tuple-stream Anc join broke ancestor order")
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//nosuchtag//name")
	j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("join with empty left produced %d tuples", len(out))
	}
}

func TestNewStackTreeJoinRejectsMissingColumns(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	if _, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 5, 1, pattern.Descendant, plan.AlgoDesc); err == nil {
		t.Fatal("missing ancestor column accepted")
	}
	if _, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 5, pattern.Descendant, plan.AlgoDesc); err == nil {
		t.Fatal("missing descendant column accepted")
	}
}

// TestStatsCounters pins the scan counters' accounting. Every posting of a
// scanned tag is read (ScannedTuples), bypassed by a skip-ahead seek in the
// index (SkippedTuples), or left unread because the join stopped pulling that
// input — so the two counters together never exceed the postings of both
// tags (TestJoinSkipAheadEndToEnd holds that on a document built of dead
// regions). Here both inputs fit one posting block, which a reader takes
// whole before the join looks at a row: nothing is left to seek past or to
// leave unread, and the sum is exactly 3 managers + 7 names, none skipped.
func TestStatsCounters(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	ctx := newCtx(t, doc)
	out, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	mgr, _ := doc.LookupTag("manager")
	nm, _ := doc.LookupTag("name")
	postings := doc.TagCount(mgr) + doc.TagCount(nm)
	if postings != 10 || ctx.Stats.ScannedTuples+ctx.Stats.SkippedTuples != postings || ctx.Stats.SkippedTuples != 0 {
		t.Errorf("ScannedTuples = %d, SkippedTuples = %d, want %d and 0", ctx.Stats.ScannedTuples, ctx.Stats.SkippedTuples, postings)
	}
	if ctx.Stats.StackOps == 0 {
		t.Error("StackOps not counted")
	}
	if ctx.Stats.BufferedPairs != 0 {
		t.Error("Desc join should buffer nothing")
	}
	if ctx.Stats.OutputTuples != len(out) {
		t.Errorf("OutputTuples = %d, want %d", ctx.Stats.OutputTuples, len(out))
	}
	// One root batch carries all the output.
	if ctx.Stats.Batches != 1 {
		t.Errorf("Batches = %d, want 1", ctx.Stats.Batches)
	}
}
