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

// buildForest appends the docs to a fresh forest and returns the forest
// document, the member spans, and the segmented store.
func buildForest(t *testing.T, docs []*xmltree.Document) (*xmltree.Document, []xmltree.DocSpan, *Store) {
	t.Helper()
	forest := xmltree.NewForest()
	var spans []xmltree.DocSpan
	for _, d := range docs {
		var span xmltree.DocSpan
		var err error
		forest, span, err = xmltree.AppendMember(forest, d)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, span)
	}
	st, err := BuildForestStoreOn(NewMemFile(), forest, spans, 64, StoreOptions{})
	if err != nil {
		t.Fatal(err)
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

// The appendable forest store must read back exactly like the one-shot
// merged store: AppendMember assigns the same node IDs and positions as
// MergeDocuments, so tag scans agree ID for ID.
func TestForestStoreMatchesMergedStore(t *testing.T) {
	docs := memberDocs(t, 3)
	forest, _, segStore := buildForest(t, docs)

	merged, _, err := xmltree.MergeDocuments(docs)
	if err != nil {
		t.Fatal(err)
	}
	static, err := BuildStore(merged, 64)
	if err != nil {
		t.Fatal(err)
	}

	if forest.NumNodes() != merged.NumNodes() {
		t.Fatalf("forest %d nodes, merged %d", forest.NumNodes(), merged.NumNodes())
	}
	for tg := 0; tg < merged.NumTags(); tg++ {
		name := merged.TagName(xmltree.TagID(tg))
		ft, ok := forest.LookupTag(name)
		if !ok {
			t.Fatalf("forest missing tag %q", name)
		}
		want := scanAll(t, static, xmltree.TagID(tg))
		got := scanAll(t, segStore, ft)
		if len(want) != len(got) {
			t.Fatalf("tag %q: %d vs %d postings", name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("tag %q posting %d: %d vs %d", name, i, got[i], want[i])
			}
		}
		// Node records agree too. Node 0 is excluded: the forest root
		// keeps the open-ended sentinel end, the merged root a real one.
		for _, id := range got {
			if id == 0 {
				continue
			}
			a, err := segStore.Node(id)
			if err != nil {
				t.Fatal(err)
			}
			b, err := static.Node(id)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("node %d: %+v vs %+v", id, a, b)
			}
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
		forest, spans, st := buildForest(t, docs)
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
							for _, pos := range []xmltree.Pos{forest.Start(sp.First), forest.Start(sp.First) + 1} {
								vs, _ := st.ProbeValue(tag, op, rhs)
								skipped, err := vs.SeekGE(pos)
								if err != nil {
									t.Fatal(err)
								}
								from := 0
								for from < len(want) && forest.Start(want[from]) < pos {
									from++
								}
								if got := drainProbe(t, vs); skipped != from || !slices.Equal(got, want[from:]) {
									t.Fatalf("live=%d %s %v %q seek %d: skipped %d and got %v, want %d and %v",
										live, tag, op, rhs, pos, skipped, got, from, want[from:])
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
	forest, spans, segStore := buildForest(t, docs)

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

// Staged appends only produce page images; adopting them after applying the
// images must behave exactly like the all-at-once build.
func TestForestStoreStageAdopt(t *testing.T) {
	docs := memberDocs(t, 3)

	forest := xmltree.NewForest()
	file := NewMemFile()
	st, err := NewForestStore(file, forest, 64, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		var span xmltree.DocSpan
		forest, span, err = xmltree.AppendMember(forest, d)
		if err != nil {
			t.Fatal(err)
		}
		stage, err := st.StageSegment(forest, span)
		if err != nil {
			t.Fatal(err)
		}
		pagesBefore := file.NumPages()
		if len(stage.images) == 0 {
			t.Fatal("stage produced no images")
		}
		if file.NumPages() != pagesBefore {
			t.Fatal("staging touched the file")
		}
		st, err = st.CommitStage(stage)
		if err != nil {
			t.Fatal(err)
		}
	}

	_, _, oneShot := buildForest(t, docs)
	for tg := 0; tg < forest.NumTags(); tg++ {
		a := scanAll(t, st, xmltree.TagID(tg))
		b := scanAll(t, oneShot, xmltree.TagID(tg))
		if len(a) != len(b) {
			t.Fatalf("tag %d: %d vs %d postings", tg, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tag %d posting %d differs", tg, i)
			}
		}
	}
	// Determinism: the incremental file is byte-identical to the one-shot
	// build — the property recovery's redo verification rests on.
	other := oneShot.File().(*MemFile)
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
			t.Fatalf("page %d differs between incremental and one-shot build", i)
		}
	}
}
