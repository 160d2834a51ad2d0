package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// buildForest lays a fresh forest down and appends the docs one segment
// each, the way the engine's grow path does; it returns the forest document,
// the member spans, and the store.
func buildForest(tb testing.TB, docs []*xmltree.Document, poolFrames int) (*xmltree.Document, []xmltree.DocSpan, *Store) {
	tb.Helper()
	forest := xmltree.NewForest()
	st, err := BuildStoreOn(NewMemFile(), forest, poolFrames)
	if err != nil {
		tb.Fatal(err)
	}
	spans := make([]xmltree.DocSpan, len(docs))
	for i, d := range docs {
		if forest, spans[i], err = xmltree.AppendMember(forest, d); err != nil {
			tb.Fatal(err)
		}
		stage, err := st.StageSegment(forest, spans[i])
		if err != nil {
			tb.Fatal(err)
		}
		if st, err = st.CommitStage(stage); err != nil {
			tb.Fatal(err)
		}
	}
	return forest, spans, st
}

func memberDocs(t *testing.T, n int) []*xmltree.Document {
	t.Helper()
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		docs[i] = xmltree.RandomDocument(rng, 400+130*i, []string{"a", "b", "c", "d"})
	}
	return docs
}

func scanAll(t *testing.T, s *Store, tag xmltree.TagID) []xmltree.NodeID {
	t.Helper()
	var out []xmltree.NodeID
	sc := s.ScanTag(tag)
	for {
		id, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, id)
	}
}

// A forest store of one segment per member must read back exactly like a
// store built in one segment over the final forest document: tag scans agree
// ID for ID, node records agree node for node.
func TestForestStoreMatchesMergedStore(t *testing.T) {
	docs := memberDocs(t, 3)
	forest, _, segStore := buildForest(t, docs, 64)
	oneSeg, err := BuildStore(forest, 64)
	if err != nil {
		t.Fatal(err)
	}
	if segStore.NumSegments() != 4 || oneSeg.NumSegments() != 1 {
		t.Fatalf("%d and %d segments, want 4 and 1", segStore.NumSegments(), oneSeg.NumSegments())
	}
	for tg := 0; tg < forest.NumTags(); tg++ {
		want := scanAll(t, oneSeg, xmltree.TagID(tg))
		if got := scanAll(t, segStore, xmltree.TagID(tg)); !slices.Equal(got, want) {
			t.Fatalf("tag %q: segmented scan %v, one-segment scan %v", forest.TagName(xmltree.TagID(tg)), got, want)
		}
	}
	for id := xmltree.NodeID(0); int(id) < forest.NumNodes(); id++ {
		a, err := segStore.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := oneSeg.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("node %d: %+v vs %+v", id, a, b)
		}
	}
}

// probeMember is member i of the value-probe forests: a "num" tag that is
// numeric everywhere, with the spelling of a number changing from member to
// member ("1" here, "1.0" or "01" there); a "flip" tag that is numeric in
// every member but one; a "word" tag; and a "mixed" tag with empty values.
func probeMember(t *testing.T, rng *rand.Rand, i, wordAt int) *xmltree.Document {
	t.Helper()
	spell := []string{"%d", "%d.0", "0%d"}[i%3]
	var sb strings.Builder
	sb.WriteString("<m>")
	for k := 0; k < 40; k++ {
		fmt.Fprintf(&sb, "<num>"+spell+"</num>", rng.Intn(9))
		fmt.Fprintf(&sb, "<word>w%d</word>", rng.Intn(6))
		fmt.Fprintf(&sb, "<flip>%d</flip>", rng.Intn(9))
		if k%7 == 0 {
			sb.WriteString("<mixed/>")
		} else {
			fmt.Fprintf(&sb, "<mixed>%d</mixed>", rng.Intn(4))
		}
	}
	if i == wordAt {
		sb.WriteString("<flip>seven</flip>")
	}
	sb.WriteString("</m>")
	doc, err := xmltree.ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// Value probes resolve against the live segments' own indexes, one after
// another. With 1, 2 and 17 live segments and a dead one between every two,
// every eligible probe must produce exactly what scan+filter over the live
// members produces — through Next, through SeekGE from every segment
// boundary, and as a ProbeSelectivity count — numbers spelled differently in
// different segments must meet in one answer, and range eligibility must
// follow the live segments: lost while a member with a non-numeric value is
// live, back once it is dropped.
func TestForestStoreValueProbes(t *testing.T) {
	ops := []pattern.CmpOp{pattern.CmpEq, pattern.CmpLt, pattern.CmpLe, pattern.CmpGt, pattern.CmpGe}
	rhss := []string{"0", "1", "1.0", "01", "4", "4.5", "8", "9", "-1", "w3", "seven", "nope"}
	for _, live := range []int{1, 2, 17} {
		rng := rand.New(rand.NewSource(int64(live)))
		// Members at even positions stay, the ones between them are dropped;
		// one more at the end carries the non-numeric flip value.
		n := 2*live - 1
		docs := make([]*xmltree.Document, n+1)
		for i := range docs {
			docs[i] = probeMember(t, rng, i, n)
		}
		forest, spans, st := buildForest(t, docs, 64)
		var liveSpans []xmltree.DocSpan
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				liveSpans = append(liveSpans, spans[i])
				continue
			}
			var err error
			if st, err = st.DropSegment(forest, i+1); err != nil { // segment 0 is the root
				t.Fatal(err)
			}
		}
		check := func(st *Store, liveSpans []xmltree.DocSpan) {
			t.Helper()
			eligible := 0
			for _, tag := range []string{"num", "flip", "word", "mixed"} {
				for _, op := range ops {
					for _, rhs := range rhss {
						var want []xmltree.NodeID
						for _, id := range scanFilterRef(forest, tag, op, rhs) {
							for _, sp := range liveSpans {
								if sp.Contains(id) {
									want = append(want, id)
								}
							}
						}
						n, ok := st.ProbeSelectivity(tag, op, rhs)
						if ok != st.ProbeEligible(tag, op, rhs) {
							t.Fatalf("live=%d %s %v %q: ProbeSelectivity and ProbeEligible disagree", live, tag, op, rhs)
						}
						if !ok {
							continue
						}
						eligible++
						if n != len(want) {
							t.Fatalf("live=%d %s %v %q: ProbeSelectivity = %d, scan+filter finds %d", live, tag, op, rhs, n, len(want))
						}
						vs, _ := st.ProbeValue(tag, op, rhs)
						if got := drainProbe(t, vs); !slices.Equal(got, want) {
							t.Fatalf("live=%d %s %v %q: probe %v, scan+filter %v", live, tag, op, rhs, got, want)
						}
						// Seek to each live segment's first node and one past it.
						for _, sp := range liveSpans {
							for _, id := range []xmltree.NodeID{sp.First, sp.First + 1} {
								vs, _ := st.ProbeValue(tag, op, rhs)
								skipped, err := vs.SeekGE(id)
								if err != nil {
									t.Fatal(err)
								}
								from := 0
								for from < len(want) && want[from] < id {
									from++
								}
								if got := drainProbe(t, vs); skipped != from || !slices.Equal(got, want[from:]) {
									t.Fatalf("live=%d %s %v %q seek %d: skipped %d and got %v, want %d and %v",
										live, tag, op, rhs, id, skipped, got, from, want[from:])
								}
							}
						}
					}
				}
			}
			if eligible == 0 {
				t.Fatalf("live=%d: no eligible probe exercised", live)
			}
		}

		// While the last member is live, flip has one non-numeric value.
		if st.ProbeEligible("flip", pattern.CmpLt, "4") {
			t.Fatalf("live=%d: range probe on flip eligible with a non-numeric value live", live)
		}
		check(st, append(liveSpans[:len(liveSpans):len(liveSpans)], spans[n]))
		st, err := st.DropSegment(forest, n+1)
		if err != nil {
			t.Fatal(err)
		}
		if !st.ProbeEligible("flip", pattern.CmpLt, "4") || !st.ProbeEligible("num", pattern.CmpGe, "4") {
			t.Fatalf("live=%d: range probes ineligible over all-numeric live segments", live)
		}
		if st.ProbeEligible("mixed", pattern.CmpLt, "4") || st.ProbeEligible("word", pattern.CmpLt, "4") {
			t.Fatalf("live=%d: range probe eligible on a tag with empty or non-numeric values", live)
		}
		check(st, liveSpans)
	}
}

// Dropping a segment removes exactly its postings from every view, without
// touching other members' IDs.
func TestForestStoreDropSegment(t *testing.T) {
	docs := memberDocs(t, 3)
	forest, spans, segStore := buildForest(t, docs, 64)

	// Member 1 is segment 2 (segment 0 is the synthetic root).
	dropped, err := segStore.DropSegment(forest, 2)
	if err != nil {
		t.Fatal(err)
	}
	span := spans[1]
	for tg := 0; tg < forest.NumTags(); tg++ {
		tag := xmltree.TagID(tg)
		before := scanAll(t, segStore, tag)
		var want []xmltree.NodeID
		for _, id := range before {
			if !span.Contains(id) {
				want = append(want, id)
			}
		}
		got := scanAll(t, dropped, tag)
		if len(got) != len(want) {
			t.Fatalf("tag %d: %d postings after drop, want %d", tg, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tag %d posting %d: %d vs %d", tg, i, got[i], want[i])
			}
		}
		if segStore.TagCount(tag) != len(before) {
			t.Fatalf("old version mutated by DropSegment")
		}
	}
	if dropped.DeadFraction() <= 0 {
		t.Fatal("dead fraction not reported")
	}
}

// Staged appends only produce page images; applying them and adopting the
// stage must lay the store out exactly like committing it — the property
// recovery's redo verification rests on.
func TestForestStoreStageAdopt(t *testing.T) {
	docs := memberDocs(t, 3)

	forest := xmltree.NewForest()
	file := NewMemFile()
	st, err := BuildStoreOn(file, forest, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		var span xmltree.DocSpan
		forest, span, err = xmltree.AppendMember(forest, d)
		if err != nil {
			t.Fatal(err)
		}
		pagesBefore := file.NumPages()
		stage, err := st.StageSegment(forest, span)
		if err != nil {
			t.Fatal(err)
		}
		if len(stage.images) == 0 {
			t.Fatal("stage produced no images")
		}
		if file.NumPages() != pagesBefore {
			t.Fatal("staging touched the file")
		}
		if err := st.writeImages(stage.images); err != nil {
			t.Fatal(err)
		}
		st = st.AdoptStage(stage)
	}

	_, _, committed := buildForest(t, docs, 64)
	for tg := 0; tg < forest.NumTags(); tg++ {
		a := scanAll(t, st, xmltree.TagID(tg))
		b := scanAll(t, committed, xmltree.TagID(tg))
		if !slices.Equal(a, b) {
			t.Fatalf("tag %d: %v vs %v", tg, a, b)
		}
	}
	other := committed.File().(*MemFile)
	if file.NumPages() != other.NumPages() {
		t.Fatalf("page counts differ: %d vs %d", file.NumPages(), other.NumPages())
	}
	var pa, pb Page
	for i := 0; i < file.NumPages(); i++ {
		if err := file.ReadPage(PageID(i), &pa); err != nil {
			t.Fatal(err)
		}
		if err := other.ReadPage(PageID(i), &pb); err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Fatalf("page %d differs between adopted and committed build", i)
		}
	}
}
