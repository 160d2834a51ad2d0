package storage

import (
	"math/rand"
	"testing"

	"sjos/internal/xmltree"
)

func buildDoc(t *testing.T, n int) *xmltree.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	return xmltree.RandomDocument(rng, n, []string{"a", "b", "c", "d", "e"})
}

func TestStoreRoundTrip(t *testing.T) {
	doc := buildDoc(t, 5000)
	st, err := BuildStore(doc, 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumNodes() != doc.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", st.NumNodes(), doc.NumNodes())
	}
	for i := 0; i < doc.NumNodes(); i += 37 {
		id := xmltree.NodeID(i)
		rec, err := st.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Start != doc.Start(id) || rec.End != doc.End(id) ||
			rec.Level != doc.Level(id) || rec.Tag != doc.Tag(id) || rec.Parent != doc.Parent(id) {
			t.Fatalf("node %d: record %+v does not match document", id, rec)
		}
	}
}

func TestTagScannerMatchesDocument(t *testing.T) {
	doc := buildDoc(t, 3000)
	st, err := BuildStore(doc, 32)
	if err != nil {
		t.Fatal(err)
	}
	for tg := 0; tg < doc.NumTags(); tg++ {
		tag := xmltree.TagID(tg)
		want := doc.NodesWithTag(tag)
		if st.TagCount(tag) != len(want) {
			t.Fatalf("tag %d: TagCount = %d, want %d", tg, st.TagCount(tag), len(want))
		}
		sc := st.ScanTag(tag)
		var prev xmltree.Pos
		for i := 0; ; i++ {
			id, rec, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(want) {
					t.Fatalf("tag %d: scanner stopped at %d of %d", tg, i, len(want))
				}
				break
			}
			if id != want[i] {
				t.Fatalf("tag %d: posting %d = %d, want %d", tg, i, id, want[i])
			}
			if rec.Tag != tag {
				t.Fatalf("tag %d: posting %d has record tag %d", tg, i, rec.Tag)
			}
			if i > 0 && rec.Start <= prev {
				t.Fatalf("tag %d: postings not in document order", tg)
			}
			prev = rec.Start
		}
	}
}

func TestScanUnknownTag(t *testing.T) {
	doc := buildDoc(t, 100)
	st, err := BuildStore(doc, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc := st.ScanTag(xmltree.TagID(999))
	if _, _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("scan of unknown tag: ok=%v err=%v", ok, err)
	}
	if st.TagCount(xmltree.TagID(999)) != 0 {
		t.Fatal("TagCount of unknown tag should be 0")
	}
}

// TestStoreSmallPoolThrashes checks the store remains correct when the pool
// is far smaller than the data, and that misses are actually observed.
func TestStoreSmallPoolThrashes(t *testing.T) {
	doc := buildDoc(t, 20000)
	st, err := BuildStore(doc, 2)
	if err != nil {
		t.Fatal(err)
	}
	tag := xmltree.TagID(0)
	sc := st.ScanTag(tag)
	n := 0
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != doc.TagCount(tag) {
		t.Fatalf("scanned %d, want %d", n, doc.TagCount(tag))
	}
	if st.Pool().Stats().Evicted == 0 {
		t.Fatal("expected evictions with a 2-frame pool")
	}
}
