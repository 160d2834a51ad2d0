package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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

func personnelDoc(t testing.TB) *xmltree.Document { return mustParseDoc(t, personnelXML) }

// edgePattern is the 2-node pattern "anc axis desc".
func edgePattern(anc, desc string, ax pattern.Axis) *pattern.Pattern {
	if ax == pattern.Descendant {
		return pattern.MustParse("//" + anc + "//" + desc)
	}
	return pattern.MustParse("//" + anc + "/" + desc)
}

// runEdgeJoin joins the 2-node pattern "anc axis desc" with the given
// algorithm and returns normalised, canonically sorted results.
func runEdgeJoin(t *testing.T, doc *xmltree.Document, anc, desc string, ax pattern.Axis, algo plan.Algo) []Tuple {
	t.Helper()
	pat := edgePattern(anc, desc, ax)
	left := NewIndexScan(pat, 0)
	right := NewIndexScan(pat, 1)
	j, err := NewStackTreeJoin(left, right, 0, 1, pat.Nodes[0].Tag, ax, algo)
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
	return ReferenceMatches(doc, edgePattern(anc, desc, ax))
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
	j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
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
	j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoAnc)
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
// both join variants agree with brute force, and deliver in the order they
// promise, for both axes — over three tags, and over a recursive vocabulary
// of one, where every ancestor candidate is a descendant candidate too and
// same-level runs and nested same-tag stacks are the common case.
func TestStackTreeRandomDocs(t *testing.T) {
	stackTreeRandomDocs(t, 77, "a", "b", "c")
	stackTreeRandomDocs(t, 78, "a")
}

func stackTreeRandomDocs(t *testing.T, seed int64, tags ...string) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 120; trial++ {
		doc := xmltree.RandomDocument(rng, 2+rng.Intn(120), tags)
		for _, ax := range []pattern.Axis{pattern.Child, pattern.Descendant} {
			pat := edgePattern(tags[rng.Intn(len(tags))], tags[rng.Intn(len(tags))], ax)
			checkJoin(t, doc, pat, func() (Operator, Operator) {
				return NewIndexScan(pat, 0), NewIndexScan(pat, 1)
			}, 0, 1, ax)
			if t.Failed() {
				t.Fatalf("seed %d trial %d: %s", seed, trial, pat)
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
	me, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoAnc)
	if err != nil {
		t.Fatal(err)
	}
	men, err := NewStackTreeJoin(me, NewIndexScan(pat, 2), 0, 2, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoAnc)
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
	j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
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
	if _, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 5, 1, "", pattern.Descendant, plan.AlgoDesc); err == nil {
		t.Fatal("missing ancestor column accepted")
	}
	if _, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 5, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc); err == nil {
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
// StackOps counts pushes and pops of ancestors that were live when their turn
// came: alice is pushed, carol (nested, holding three names) is pushed, dan's
// push first pops carol and alice, and Desc stops at the end of the right
// input with dan still on the stack — three pushes and two pops. No manager
// here is dead on arrival; TestJoinPassesOverDeadAncestors pins those at zero.
func TestStatsCounters(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
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
	if ctx.Stats.StackOps != 5 {
		t.Errorf("StackOps = %d, want 3 pushes + 2 pops", ctx.Stats.StackOps)
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

// checkJoin runs one edge join — inputs built by mk, joined on pattern nodes
// anc and desc — with both algorithms and holds each to brute force
// (ReferenceMatches over pat, as a multiset) and to the order the variant
// promises, row for row: Anc delivers in ancestor Start order with ties in
// arrival order, which is the left-major nested loop over the two input
// streams; Desc in descendant Start order, stack order within one
// descendant, which is the right-major one. It returns each run's counters
// for tests that pin them.
func checkJoin(t *testing.T, doc *xmltree.Document, pat *pattern.Pattern, mk func() (left, right Operator), anc, desc int, ax pattern.Axis) map[plan.Algo]Stats {
	t.Helper()
	drain := func(op Operator) []Tuple {
		out, err := Drain(newCtx(t, doc), op)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	l, r := mk()
	ls, rs := drain(l), drain(r)
	lCol, _ := l.Schema().Col(anc)
	rCol, _ := r.Schema().Col(desc)
	ref := ReferenceMatches(doc, pat)
	stats := map[plan.Algo]Stats{}
	for _, algo := range []plan.Algo{plan.AlgoDesc, plan.AlgoAnc} {
		l, r := mk()
		j, err := NewStackTreeJoin(l, r, anc, desc, pat.Nodes[anc].Tag, ax, algo)
		if err != nil {
			t.Fatal(err)
		}
		ctx := newCtx(t, doc)
		got, err := Drain(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		stats[algo] = ctx.Stats
		if norm := NormalizeAll(j.Schema(), pat.N(), got); !sortedEq(norm, append([]Tuple(nil), ref...)) {
			t.Errorf("%s via %v: %d rows, brute force %d", pat, algo, len(got), len(ref))
		}
		checkNestedLoop(t, fmt.Sprintf("%s via %v", pat, algo), got, nestedLoop(doc, ls, rs, lCol, rCol, ax, algo))
	}
	return stats
}

// nestedLoop is the row sequence a Stack-Tree variant promises over the
// input streams ls and rs: left-major for Anc, right-major for Desc.
func nestedLoop(doc *xmltree.Document, ls, rs []Tuple, lCol, rCol int, ax pattern.Axis, algo plan.Algo) []Tuple {
	rel := doc.IsAncestor
	if ax == pattern.Child {
		rel = doc.IsParent
	}
	var out []Tuple
	pair := func(lt, rt Tuple) {
		if rel(lt[lCol], rt[rCol]) {
			out = append(out, append(append(Tuple(nil), lt...), rt...))
		}
	}
	if algo == plan.AlgoAnc {
		for _, lt := range ls {
			for _, rt := range rs {
				pair(lt, rt)
			}
		}
		return out
	}
	for _, rt := range rs {
		for _, lt := range ls {
			pair(lt, rt)
		}
	}
	return out
}

// checkNestedLoop holds a join's rows to the nested loop's, row for row.
func checkNestedLoop(t testing.TB, what string, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, nested loop %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: row %d is %v, want %v", what, i, got[i], want[i])
			return
		}
	}
}

// checkEdge is checkJoin for "//anc//desc" and "//anc/desc" over two index
// scans.
func checkEdge(t *testing.T, doc *xmltree.Document, anc, desc string) map[pattern.Axis]map[plan.Algo]Stats {
	t.Helper()
	stats := map[pattern.Axis]map[plan.Algo]Stats{}
	for _, ax := range []pattern.Axis{pattern.Descendant, pattern.Child} {
		pat := edgePattern(anc, desc, ax)
		stats[ax] = checkJoin(t, doc, pat, func() (Operator, Operator) {
			return NewIndexScan(pat, 0), NewIndexScan(pat, 1)
		}, 0, 1, ax)
	}
	return stats
}

func mustParseDoc(t testing.TB, src string) *xmltree.Document {
	t.Helper()
	d, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestJoinPassesOverDeadAncestors covers the left tuples the drivers never
// push: a dead ancestor followed by a live one, both nested in a live one;
// dead runs longer than a reader batch, under a live ancestor and on an empty
// stack; dead ancestors left over when the right input ends, and a dead run
// that ends the left input while right tuples remain.
func TestJoinPassesOverDeadAncestors(t *testing.T) {
	dead := strings.Repeat("<a/>", BatchRows+500)
	for _, tc := range []struct {
		name, xml string
		// StackOps: a push and a pop for each live ancestor and nothing for a
		// dead one — less, under Desc, the entry still on the stack when the
		// right input ends (Desc stops there; Anc pops to release its lists).
		ancOps, descOps int
	}{
		{"dead then live, nested in live", "<r><a><a/><a><b/></a><b/></a></r>", 4, 3},
		{"dead runs across a refill", "<r><a>" + dead + "<b/></a>" + dead + "<a><b/></a></r>", 4, 3},
		{"right ends before the dead", "<r><a><b/></a><a/><a/><a><a/></a></r>", 2, 1},
		{"left ends in a dead run", "<r><a><b/></a>" + dead + "<b/><b/></r>", 2, 2},
	} {
		doc := mustParseDoc(t, tc.xml)
		for ax, byAlgo := range checkEdge(t, doc, "a", "b") {
			want := map[plan.Algo]int{plan.AlgoAnc: tc.ancOps, plan.AlgoDesc: tc.descOps}
			for algo, st := range byAlgo {
				if st.StackOps != want[algo] {
					t.Errorf("%s, %v via %v: StackOps = %d, want %d", tc.name, ax, algo, st.StackOps, want[algo])
				}
			}
		}
	}
}

// TestJoinRepeatedBottomAncestor joins a tuple stream that repeats its
// ancestor node — (a, c) pairs ordered by a — with b: the entries of one node
// sit at one level, the bottom one's pairs are output directly and the
// others' buffered, and the two must interleave into left-arrival order; on
// the `/` edge the whole run of equal-level entries is the parent.
func TestJoinRepeatedBottomAncestor(t *testing.T) {
	doc := mustParseDoc(t, "<r><a><c/><c/><b/><a><c/><b/><b/></a><b/></a><a><b/><c/></a></r>")
	for ax, src := range map[pattern.Axis]string{pattern.Descendant: "//a[.//c]//b", pattern.Child: "//a[.//c]/b"} {
		pat := pattern.MustParse(src)
		checkJoin(t, doc, pat, func() (Operator, Operator) {
			ac, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoAnc)
			if err != nil {
				t.Fatal(err)
			}
			return ac, NewIndexScan(pat, 2)
		}, 0, 2, ax)
	}
}

// TestJoinSameTagRecursion is manager/manager nested four deep with a
// sibling: on the `/` edge each node's parent is the top of the stack only.
func TestJoinSameTagRecursion(t *testing.T) {
	checkEdge(t, mustParseDoc(t, "<r><m><m><m><m/><m/></m></m><m/></m><m><m/></m></r>"), "m", "m")
}

// TestAncBatchFillsExactly puts the batch boundary on each kind of Anc row:
// with BatchRows descendants under two nested ancestors the first batch
// fills on the bottom's last direct pair and the second on the last ready
// row; with a few more the boundary falls inside each run.
func TestAncBatchFillsExactly(t *testing.T) {
	for _, n := range []int{BatchRows, BatchRows + 500} {
		doc := mustParseDoc(t, "<r><a><a>"+strings.Repeat("<b/>", n)+"</a></a></r>")
		st := checkEdge(t, doc, "a", "b")[pattern.Descendant][plan.AlgoAnc]
		if want := (2*n + BatchRows - 1) / BatchRows; st.Batches != want || st.BufferedPairs != 2*n {
			t.Errorf("n=%d: %d batches, %d pairs formed; want %d full-to-the-row batches and %d pairs", n, st.Batches, st.BufferedPairs, want, 2*n)
		}
	}
}

// FuzzStackTreeJoin joins small nested documents read from the input — up
// to 64 elements over two or three tags — on either axis with either
// algorithm, over a left input of width 1 (a scan) or 2 (an Anc join
// ordered by the ancestor, repeating it), draining the join through output
// batches capped at a row count taken from the input, so emission resumes
// mid-batch. Rows and their order must be the nested loop's, and the rows
// brute force's. Past minRefill ancestors the left scan runs off its first
// buffer, so the join seeks it; an arm whose ancestor leaf has a predicate
// leaves out some tagged ancestors, so seeks land between left rows, and an
// arm reads the left input through the tracer.
func FuzzStackTreeJoin(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 1, 5, 3, 2, 3, 3, 1, 3})
	f.Add([]byte{1, 7, 2, 0, 0, 0, 1, 3, 1, 3, 3, 2, 3, 3, 0, 1, 1, 3})
	f.Add([]byte{0, 2, 0, 0, 4, 8, 12, 1, 5, 3, 3, 3, 3, 2, 6, 10})
	f.Add([]byte("01000011"))                            // a batch fills mid-emission under three nested ancestors
	f.Add([]byte("\x07\x07\x01aacbbacb\x0c\x0cab\x0cc")) // a wide Anc left input on a descendant edge
	for _, seed := range nestedSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) { fuzzJoin(t, in) })
}

// nestedSeeds are FuzzStackTreeJoin inputs with an ancestor tag nested three
// deep over each of two sparse descendants, after runs of 20 dead ancestors:
// with both algorithms, and (the last two) with a predicate that drops the
// outermost ancestor of each chain, so the join's seek target is not a left
// row. The tracer reads the left input, and TestNestedSeedsSeekLeft holds
// each to a left-side seek.
var nestedSeeds = func() [][]byte {
	const openA, openA1, openB, closeEl = 0, 16, 1, 12 // openA1: an a holding "1"
	chain := func(outer, mid, inner byte) []byte {
		return []byte{outer, mid, inner, openB, closeEl, closeEl, closeEl, closeEl}
	}
	body := func(pred bool) []byte {
		var in []byte
		for half := 0; half < 2; half++ {
			for i := 0; i < 20; i++ {
				a := byte(openA)
				if pred && i%2 == 0 {
					a = openA1
				}
				in = append(in, a, closeEl)
			}
			if pred {
				in = append(in, chain(openA, openA1, openA)...)
			} else {
				in = append(in, chain(openA, openA, openA)...)
			}
		}
		return in
	}
	var seeds [][]byte
	for _, pred := range []bool{false, true} {
		for _, algo := range []byte{0, 2} { // Desc, Anc
			head := []byte{0, 8 | algo | 1, 3} // two tags; traced left, descendant axis; 4-row output batches
			if pred {
				head[0] |= 8
			}
			seeds = append(seeds, append(head, body(pred)...))
		}
	}
	return seeds
}()

// TestNestedSeedsSeekLeft checks that FuzzStackTreeJoin's nested seeds do
// exercise the left-side seek: each skips left postings.
func TestNestedSeedsSeekLeft(t *testing.T) {
	for i, seed := range nestedSeeds {
		if n := fuzzJoin(t, seed); n <= 0 {
			t.Errorf("nested seed %d: the left input skipped %d postings, want some", i, n)
		}
	}
}

// fuzzJoin is FuzzStackTreeJoin's body: in[0] bit 0 picks a third tag and
// bit 3 the ancestor predicate; in[1] bit 0 the axis, bit 1 the algorithm,
// bit 2 the wide left input and bit 3 the traced one; in[2] the output
// batch cap; each later byte opens an element (a tag from its low bits, an
// ancestor's text from bit 4) or, when bits 2-3 are set, closes the
// innermost open one. It returns the postings the traced left input
// skipped (0 untraced).
func fuzzJoin(t *testing.T, in []byte) int64 {
	if len(in) < 3 {
		return 0
	}
	tags := []string{"a", "b", "c"}[:2+int(in[0]&1)]
	pred := in[0]>>3&1 == 1
	ax := pattern.Axis(in[1] & 1)
	algo := []plan.Algo{plan.AlgoDesc, plan.AlgoAnc}[in[1]>>1&1]
	wide := in[1]>>2&1 == 1
	trace := in[1]>>3&1 == 1
	rowCap := 1 + int(in[2]%9)
	var sb strings.Builder
	sb.WriteString("<r>")
	var open []string
	nodes := 0
	for _, c := range in[3:] {
		if c>>2&3 == 3 && len(open) > 0 {
			sb.WriteString("</" + open[len(open)-1] + ">")
			open = open[:len(open)-1]
		} else if nodes < 64 {
			tag := tags[int(c)%len(tags)]
			sb.WriteString("<" + tag + ">")
			if pred && tag == tags[0] {
				sb.WriteString(fmt.Sprint(c >> 4 & 1))
			}
			open = append(open, tag)
			nodes++
		}
	}
	for len(open) > 0 {
		sb.WriteString("</" + open[len(open)-1] + ">")
		open = open[:len(open)-1]
	}
	sb.WriteString("</r>")
	doc := mustParseDoc(t, sb.String())

	anc, desc, other := tags[0], tags[1], tags[len(tags)-1]
	if pred {
		anc += `[.="1"]`
	}
	step := "//"
	if ax == pattern.Child {
		step = "/"
	}
	var pat *pattern.Pattern
	var mk func() (Operator, Operator)
	descNode := 1
	if !wide {
		pat = pattern.MustParse("//" + anc + step + desc)
		mk = func() (Operator, Operator) { return NewIndexScan(pat, 0), NewIndexScan(pat, 1) }
	} else {
		pat = pattern.MustParse("//" + anc + "[.//" + other + "]" + step + desc)
		descNode = 2
		mk = func() (Operator, Operator) {
			l, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoAnc)
			if err != nil {
				t.Fatal(err)
			}
			return l, NewIndexScan(pat, 2)
		}
	}
	l, r := mk()
	ls, err := Drain(newCtx(t, doc), l)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Drain(newCtx(t, doc), r)
	if err != nil {
		t.Fatal(err)
	}
	lCol, _ := l.Schema().Col(0)
	rCol, _ := r.Schema().Col(descNode)
	want := nestedLoop(doc, ls, rs, lCol, rCol, ax, algo)

	l, r = mk()
	rec := &OpTrace{}
	if trace {
		l = &traced{inner: l, rec: rec}
	}
	j, err := NewStackTreeJoin(l, r, 0, descNode, pat.Nodes[0].Tag, ax, algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(newCtx(t, doc)); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	b := NewBatch(j.Schema().Width())
	var got []Tuple
	for {
		b.SetCap(rowCap)
		if err := j.NextBatch(b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		if b.Len() > rowCap {
			t.Fatalf("batch of %d rows over a cap of %d", b.Len(), rowCap)
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, append(Tuple(nil), b.Row(i)...))
		}
	}
	what := fmt.Sprintf("%s via %v over %s", pat, algo, sb.String())
	checkNestedLoop(t, what, got, want)
	if norm, ref := NormalizeAll(j.Schema(), pat.N(), got), ReferenceMatches(doc, pat); !sortedEq(norm, ref) {
		t.Errorf("%s: %d rows, brute force %d", what, len(got), len(ref))
	}
	return rec.Skipped
}
