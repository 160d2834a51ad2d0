package exec

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// TestBatchMatchesTupleRandomDocs is TestStackTreeRandomDocs on the seed
// that, until the tuple-at-a-time path was deleted, compared the two paths
// with each other: same documents, same 120 trials, now held to the
// brute-force reference's tuples.
func TestBatchMatchesTupleRandomDocs(t *testing.T) { stackTreeRandomDocs(t, 41, "a", "b", "c") }

// TestBatchMultiJoinPipeline batches a join over join outputs (tuple
// streams), plus a Sort and a Limit on top — the full operator zoo in one
// batched tree.
func TestBatchMultiJoinPipeline(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	build := func() Operator {
		me, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoAnc)
		if err != nil {
			t.Fatal(err)
		}
		men, err := NewStackTreeJoin(me, NewIndexScan(pat, 2), 0, 2, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoAnc)
		if err != nil {
			t.Fatal(err)
		}
		return men
	}
	op := build()
	got, err := Drain(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceMatches(doc, pat)
	if !sortedEq(NormalizeAll(op.Schema(), 3, got), want) {
		t.Fatalf("batched pipeline: got %d matches, want %d", len(got), len(want))
	}

	srt, err := NewSort(build(), 2)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := Drain(newCtx(t, doc), srt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(want) {
		t.Fatalf("batched sort: got %d rows, want %d", len(sorted), len(want))
	}
	col, _ := srt.Schema().Col(2)
	for i := 1; i < len(sorted); i++ {
		if doc.Start(sorted[i][col]) < doc.Start(sorted[i-1][col]) {
			t.Fatal("batched sort output out of order")
		}
	}

	for _, n := range []int{0, 1, 3, len(want), len(want) + 5} {
		lim, err := Drain(newCtx(t, doc), NewLimit(build(), n))
		if err != nil {
			t.Fatal(err)
		}
		wantN := n
		if wantN > len(want) {
			wantN = len(want)
		}
		if len(lim) != wantN {
			t.Fatalf("batched limit %d: got %d rows, want %d", n, len(lim), wantN)
		}
	}
}

// TestBatchLimitNotSeekable guards the deliberate hole in the Unwrap chain:
// a skip-ahead probe must not reach through a Limit, because seeking past
// rows the Limit has not counted would break its cap accounting.
func TestBatchLimitNotSeekable(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	l := NewLimit(NewIndexScan(pat, 0), 1)
	if seekerOf(l) != nil {
		t.Fatal("seekerOf reached through a Limit; seeks would bypass the row cap")
	}
}

// TestTrySeekUnwrapsAdapters checks the seek probe reaches the scan through
// the one wrapper a plan operator can sit under — the tracer — and that the
// tracer records what the seek bypassed; and that the tracer over an
// operator that cannot seek cannot seek either, so tracing never changes
// the path an execution takes.
func TestTrySeekUnwrapsAdapters(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	s := NewIndexScan(pat, 1)
	if err := s.Open(newCtx(t, doc)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wrapped := &traced{inner: s, rec: &OpTrace{}}
	nm, _ := doc.LookupTag("name")
	names := doc.NodesWithTag(nm)
	sk := seekerOf(wrapped)
	if sk == nil {
		t.Fatal("a traced scan cannot seek")
	}
	skipped, err := sk.SeekGE(names[2])
	if err != nil || skipped != 2 || wrapped.rec.Skipped != 2 {
		t.Fatalf("seek through the tracer: skipped=%d (traced %d) err=%v, want 2 postings skipped",
			skipped, wrapped.rec.Skipped, err)
	}
	j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Operator{j, NewLimit(s, 1), &traced{inner: j, rec: &OpTrace{}}} {
		if seekerOf(op) != nil {
			t.Errorf("%T can seek", op)
		}
	}
}

// TestIndexScanSkipAhead seeks a scan past a dead region and checks the
// skipped postings are counted and the remaining stream is intact.
func TestIndexScanSkipAhead(t *testing.T) {
	// 40 b leaves, then an a subtree holding 2 more bs: a seek to the a's
	// NodeID must bypass the 40 dead bs.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 40; i++ {
		sb.WriteString("<b></b>")
	}
	sb.WriteString("<a><b></b><c><b></b></c></a></r>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.MustParse("//a//b")
	ctx := newCtx(t, doc)
	s := NewIndexScan(pat, 1)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	aTag, _ := doc.LookupTag("a")
	aID := doc.NodesWithTag(aTag)[0]
	skipped, err := s.SeekGE(aID)
	if err != nil {
		t.Fatalf("SeekGE: %v", err)
	}
	if skipped != 40 {
		t.Fatalf("SeekGE skipped %d postings, want 40", skipped)
	}
	if ctx.Stats.SkippedTuples != 40 {
		t.Fatalf("SkippedTuples = %d, want 40", ctx.Stats.SkippedTuples)
	}
	b := NewBatch(1)
	if err := s.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < b.Len(); i++ {
		if b.Row(i)[0] < aID {
			t.Fatal("scan produced a row from the skipped region")
		}
	}
	if b.Len() != 2 {
		t.Fatalf("post-seek scan produced %d rows, want 2", b.Len())
	}
}

// TestJoinSkipAheadEndToEnd drives the whole skip-ahead path: a sparse
// ancestor stream over a dense descendant stream must trigger seeks (counted
// in SkippedTuples) and still produce exactly the reference result.
func TestJoinSkipAheadEndToEnd(t *testing.T) {
	// Dead regions of bs between sparse as; only bs inside as match. Each
	// dead region is bigger than one Batch so the skip must reach the
	// storage layer rather than being absorbed by the reader's in-buffer
	// binary search.
	var sb strings.Builder
	sb.WriteString("<r>")
	for blk := 0; blk < 3; blk++ {
		for i := 0; i < BatchRows+200; i++ {
			sb.WriteString("<b></b>")
		}
		sb.WriteString("<a><b></b></a>")
	}
	sb.WriteString("</r>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []plan.Algo{plan.AlgoDesc, plan.AlgoAnc} {
		pat := pattern.MustParse("//a//b")
		j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1), 0, 1, pat.Nodes[0].Tag, pattern.Descendant, algo)
		if err != nil {
			t.Fatal(err)
		}
		ctx := newCtx(t, doc)
		got, err := Drain(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		want := ReferenceMatches(doc, pat)
		if !sortedEq(NormalizeAll(j.Schema(), 2, got), want) {
			t.Fatalf("%v: skip-ahead changed results: got %d, want %d", algo, len(got), len(want))
		}
		if ctx.Stats.SkippedTuples == 0 {
			t.Errorf("%v: no postings skipped on a workload built of dead regions", algo)
		}
		aTag, _ := doc.LookupTag("a")
		bTag, _ := doc.LookupTag("b")
		if postings := doc.TagCount(aTag) + doc.TagCount(bTag); ctx.Stats.ScannedTuples+ctx.Stats.SkippedTuples > postings {
			t.Errorf("%v: scanned %d + skipped %d of %d postings", algo, ctx.Stats.ScannedTuples, ctx.Stats.SkippedTuples, postings)
		}
		if ctx.Stats.Batches == 0 {
			t.Errorf("%v: Stats.Batches not counted", algo)
		}
	}
}

// TestAncReadyQueueReleasesSlots is the regression test for the ready-queue
// retention fix: consuming the queue must recycle each served node, instead
// of growing the pair slab by every pair the join ever buffered.
func TestAncReadyQueueReleasesSlots(t *testing.T) {
	sc := new(scratch)
	j := &StackTreeJoin{sc: sc, joinState: sc.join(), schema: NewSchema(0)}
	tuples := []Tuple{{1}, {2}, {3}}
	for _, tp := range tuples {
		j.addPair(&j.ready, sc.keep(tp))
	}
	for i, want := range tuples {
		served := j.ready.head
		got := j.popReady()
		if got[0] != want[0] {
			t.Fatalf("popReady #%d = %v, want %v", i, got, want)
		}
		if j.freePairs != served {
			t.Fatalf("served node %d not recycled (free list head %d)", served, j.freePairs)
		}
	}
	if j.ready != (pairList{}) {
		t.Fatalf("drained queue not reset: %+v", j.ready)
	}
	// The drained queue must be reusable without growing the slab.
	slab := len(j.pairs)
	j.addPair(&j.ready, sc.keep(Tuple{4}))
	if got := j.popReady(); got[0] != 4 || len(j.pairs) != slab {
		t.Fatalf("reused queue served %v over a slab of %d (was %d)", got, len(j.pairs), slab)
	}
}

// TestIndexScanLocalInterruptCounter is the regression test for the
// interrupt poll: a scan polls once before every posting block it reads —
// the final, empty read included — whatever the context's shared
// ScannedTuples counter (which other operators also bump) happens to hold.
func TestIndexScanLocalInterruptCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := xmltree.RandomDocument(rng, 9000, []string{"a"})
	pat := pattern.MustParse("//a//a")
	var polls [2]int
	for run, shared := range []int{0, 1<<20 + 17} {
		ctx := newCtx(t, doc)
		ctx.Interrupt = func() error { polls[run]++; return nil }
		ctx.Stats.ScannedTuples = shared
		s := NewIndexScan(pat, 0)
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		n, b := 0, NewBatch(1)
		for {
			if err := s.NextBatch(b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				break
			}
			n += b.Len()
		}
		s.Close()
		if n != 9000 || ctx.Stats.ScannedTuples != shared+n {
			t.Fatalf("scan delivered %d rows and counted %d, want 9000", n, ctx.Stats.ScannedTuples-shared)
		}
		// At least one poll per full batch, plus the one before the read
		// that found the end.
		if min := n/BatchRows + 1; polls[run] < min {
			t.Fatalf("interrupt polled %d times over %d rows, want at least %d", polls[run], n, min)
		}
	}
	if polls[0] != polls[1] {
		t.Fatalf("poll count follows the shared counter: %d vs %d", polls[0], polls[1])
	}
}

// TestBatchAppendersAndTruncate unit-tests the Batch container itself.
func TestBatchAppendersAndTruncate(t *testing.T) {
	b := NewBatch(2)
	b.AppendRow(Tuple{1, 2})
	b.AppendRow(Tuple{3, 4})
	if b.Len() != 2 || b.Width() != 2 {
		t.Fatalf("len=%d width=%d, want 2/2", b.Len(), b.Width())
	}
	if got := b.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Row(1) = %v, want [3 4]", got)
	}
	b.Truncate(1)
	if b.Len() != 1 {
		t.Fatalf("after Truncate(1): len=%d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset left rows behind")
	}
	ids := NewBatch(1)
	ids.AppendID(9)
	ids.AppendIDs([]xmltree.NodeID{10, 11})
	if ids.Len() != 3 || ids.Row(2)[0] != 11 {
		t.Fatalf("ID appenders broken: len=%d", ids.Len())
	}
}

// TestBatchReaderSeekWithinBuffer checks the reader's search over buffered
// rows (the in-buffer half of seek).
func TestBatchReaderSeekWithinBuffer(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//name")
	s := NewIndexScan(pat, 0)
	ctx := newCtx(t, doc)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var r batchReader
	r.init(ctx, s)
	if err := r.pull(); err != nil || !r.ok() {
		t.Fatalf("empty name scan: ok=%v err=%v", r.ok(), err)
	}
	first := r.id(0)
	// Seek to a node past the first few names: result must be the first
	// name at or after it, same as scanning forward.
	nmTag, _ := doc.LookupTag("name")
	names := doc.NodesWithTag(nmTag)
	if len(names) < 3 {
		t.Fatal("fixture too small")
	}
	target := names[2]
	if err := r.seek(target, 0); err != nil || !r.ok() {
		t.Fatalf("seek: ok=%v err=%v", r.ok(), err)
	}
	if r.id(0) < target {
		t.Fatalf("seek returned a row before the target node")
	}
	if r.id(0) == first {
		t.Fatal("seek did not advance")
	}
	// And fully past the end: stream must terminate cleanly.
	if err := r.seek(xmltree.NodeID(1<<30), 0); r.ok() || err != nil {
		t.Fatalf("seek past end: ok=%v err=%v, want end of stream", r.ok(), err)
	}
}

// TestBatchReaderDemandRamp checks how a reader sizes its refills: the first
// asks for the demand (at least minRefill, no demand included) and each
// later one for twice the last, up to BatchRows.
func TestBatchReaderDemandRamp(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	doc := xmltree.RandomDocument(rng, 6000, []string{"a"})
	pat := pattern.MustParse("//a")
	for _, tc := range []struct {
		demand int
		want   []int
	}{
		{0, []int{16, 32, 64, 128, 256, 512, 1024, 1024}},
		{3, []int{16, 32, 64, 128, 256, 512, 1024, 1024}},
		{40, []int{40, 80, 160, 320, 640, 1024, 1024}},
		{5000, []int{1024, 1024}},
	} {
		ctx := newCtx(t, doc)
		ctx.demand = tc.demand
		s := NewIndexScan(pat, 0)
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		var r batchReader
		r.init(ctx, s)
		var got []int
		for len(got) < len(tc.want) {
			if err := r.pull(); err != nil || !r.ok() {
				t.Fatalf("demand %d: refill %d: ok=%v err=%v", tc.demand, len(got), r.ok(), err)
			}
			got = append(got, r.batch.Len())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("demand %d: refills of %v rows, want %v", tc.demand, got, tc.want)
		}
		s.Close()
	}
}

// TestScratchBatchUncapped checks that a batch borrowed again from a
// recycled scratch has lost the cap its last borrower set.
func TestScratchBatchUncapped(t *testing.T) {
	sc := new(scratch)
	b := sc.batch(2)
	b.SetCap(7)
	clear(sc.batchUsed) // what release does before pooling the scratch
	if again := sc.batch(2); again != b || again.Room() != BatchRows {
		t.Fatalf("re-borrowed batch has room for %d rows, want %d", again.Room(), BatchRows)
	}
}

// TestBatchVsTupleBuiltPlans cross-checks complete built plans (via the
// optimizer-facing Build/Run path) against the brute-force reference's
// tuples, on left-deep and branching shapes.
func TestBatchVsTupleBuiltPlans(t *testing.T) {
	doc := personnelDoc(t)
	cases := []struct {
		src string
		p   *plan.Node
	}{
		{"//manager//employee/name",
			plan.NewJoin(
				plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc),
				plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoDesc)},
		{"//manager[.//department]//name",
			plan.NewJoin(
				plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoAnc),
				plan.NewIndexScan(2), 0, 2, pattern.Descendant, plan.AlgoDesc)},
		{"//db//manager//employee",
			plan.NewJoin(
				plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc),
				plan.NewIndexScan(2), 1, 2, pattern.Descendant, plan.AlgoDesc)},
	}
	for _, tc := range cases {
		pat := pattern.MustParse(tc.src)
		if err := tc.p.Validate(pat, false); err != nil {
			t.Fatalf("%s: test plan invalid: %v", tc.src, err)
		}
		got, err := tuples(Run(newCtx(t, doc), pat, tc.p))
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		want := ReferenceMatches(doc, pat)
		if !sortedEq(got, want) {
			t.Fatalf("%s: %d matches, reference %d", tc.src, len(got), len(want))
		}
		op, err := Build(pat, tc.p)
		if err != nil {
			t.Fatalf("%s build: %v", tc.src, err)
		}
		n, err := Count(newCtx(t, doc), op)
		if err != nil {
			t.Fatalf("%s count: %v", tc.src, err)
		}
		if n != len(want) {
			t.Fatalf("%s: Count = %d, want %d", tc.src, n, len(want))
		}
	}
}

// rowsOp serves a fixed row list, at most per rows a batch and never past
// the batch's cap.
type rowsOp struct {
	schema *Schema
	rows   []Tuple
	per    int
	pos    int
}

func (o *rowsOp) Schema() *Schema         { return o.schema }
func (o *rowsOp) Open(ctx *Context) error { return nil }
func (o *rowsOp) Close() error            { return nil }
func (o *rowsOp) NextBatch(b *Batch) error {
	b.Reset()
	for n := 0; n < o.per && !b.Full() && o.pos < len(o.rows); n++ {
		b.AppendRow(o.rows[o.pos])
		o.pos++
	}
	return nil
}

// seekRowsOp is a rowsOp that implements Seeker on column col.
type seekRowsOp struct {
	rowsOp
	col int
}

func (o *seekRowsOp) SeekGE(id xmltree.NodeID) (int, error) {
	from := o.pos
	for o.pos < len(o.rows) && o.rows[o.pos][o.col] < id {
		o.pos++
	}
	return o.pos - from, nil
}

// TestBatchSeekByNodeID holds the reader's galloping seek to a linear lower
// bound over the same rows: random widths 1-4 seeking on any column, sought
// columns that repeat an id (as an Anc output repeats its ancestor), targets
// before, inside and past the buffered rows, seeks across refills from a
// child that seeks and from one that does not, and batches capped by a
// demand.
func TestBatchSeekByNodeID(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		w := 1 + rng.Intn(4)
		col := rng.Intn(w)
		rows := make([]Tuple, rng.Intn(3000))
		id := xmltree.NodeID(rng.Intn(8))
		for i := range rows {
			if rng.Intn(3) > 0 {
				id += xmltree.NodeID(rng.Intn(6))
			}
			rows[i] = make(Tuple, w)
			for c := range rows[i] {
				rows[i][c] = xmltree.NodeID(rng.Intn(1 << 20))
			}
			rows[i][col] = id
		}
		cols := make([]int, w)
		for c := range cols {
			cols[c] = c
		}
		base := rowsOp{schema: NewSchema(cols...), rows: rows, per: 1 + rng.Intn(2*BatchRows)}
		var op Operator = &base
		if trial%2 == 0 {
			op = &seekRowsOp{rowsOp: base, col: col}
		}
		ctx := &Context{scratch: new(scratch)}
		if trial%3 == 0 {
			ctx.demand = 1 + rng.Intn(100)
		}
		var r batchReader
		r.init(ctx, op)
		if err := r.pull(); err != nil {
			t.Fatal(err)
		}
		for p := 0; ; {
			if r.ok() != (p < len(rows)) {
				t.Fatalf("trial %d: reader ok=%v at row %d of %d", trial, r.ok(), p, len(rows))
			}
			if p == len(rows) {
				break
			}
			if !slices.Equal(r.row(), rows[p]) {
				t.Fatalf("trial %d: row %d is %v, want %v", trial, p, r.row(), rows[p])
			}
			if rng.Intn(4) == 0 {
				if err := r.advance(); err != nil {
					t.Fatal(err)
				}
				p++
				continue
			}
			var target xmltree.NodeID
			switch k := rng.Intn(10); {
			case k == 0: // before the current row
				target = rows[p][col] - min(rows[p][col], xmltree.NodeID(rng.Intn(3)))
			case k == 1: // past the last row
				target = rows[len(rows)-1][col] + 1 + xmltree.NodeID(rng.Intn(3))
			case k < 5: // a long jump, often across a refill
				target = rows[p][col] + xmltree.NodeID(rng.Intn(2000))
			default: // a short one
				target = rows[p][col] + xmltree.NodeID(rng.Intn(12))
			}
			if err := r.seek(target, col); err != nil {
				t.Fatal(err)
			}
			for p < len(rows) && rows[p][col] < target {
				p++
			}
		}
	}
}
