package storage

import (
	"testing"

	"sjos/internal/xmltree"
)

// drainScanner collects every remaining posting of sc.
func drainScanner(t *testing.T, sc *TagScanner) []xmltree.NodeID {
	t.Helper()
	var out []xmltree.NodeID
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

func equalIDs(a, b []xmltree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeekGE covers the skip-ahead entry points: seek before the first
// posting, to an exact posting, between postings, past the end, repeated
// and backwards (no-op) seeks.
func TestSeekGE(t *testing.T) {
	doc := buildDoc(t, 4000)
	st, err := BuildStore(doc, 16)
	if err != nil {
		t.Fatal(err)
	}
	tag := xmltree.TagID(2)
	ids := doc.NodesWithTag(tag)
	if len(ids) < 8 {
		t.Fatalf("need at least 8 postings, got %d", len(ids))
	}
	last := len(ids) - 1

	t.Run("before first", func(t *testing.T) {
		sc := st.ScanTag(tag)
		skipped, err := sc.SeekGE(0)
		if err != nil || skipped != 0 {
			t.Fatalf("skipped=%d err=%v, want 0, nil", skipped, err)
		}
		if got := drainScanner(t, sc); !equalIDs(got, ids) {
			t.Fatalf("seek to 0 lost postings: %d of %d", len(got), len(ids))
		}
	})
	t.Run("exactly on a posting", func(t *testing.T) {
		sc := st.ScanTag(tag)
		mid := len(ids) / 2
		skipped, err := sc.SeekGE(ids[mid])
		if err != nil || skipped != mid {
			t.Fatalf("skipped=%d err=%v, want %d, nil", skipped, err, mid)
		}
		if got := drainScanner(t, sc); !equalIDs(got, ids[mid:]) {
			t.Fatalf("got %d postings, want %d", len(got), len(ids)-mid)
		}
	})
	t.Run("between postings", func(t *testing.T) {
		sc := st.ScanTag(tag)
		mid := len(ids) / 2
		// An id strictly between posting mid-1 and mid lands on mid.
		id := ids[mid-1] + 1
		if id > ids[mid] {
			t.Skip("adjacent postings")
		}
		if _, err := sc.SeekGE(id); err != nil {
			t.Fatal(err)
		}
		if got := drainScanner(t, sc); !equalIDs(got, ids[mid:]) {
			t.Fatalf("got %d postings, want %d", len(got), len(ids)-mid)
		}
	})
	t.Run("past the end", func(t *testing.T) {
		sc := st.ScanTag(tag)
		skipped, err := sc.SeekGE(ids[last] + 1)
		if err != nil || skipped != len(ids) {
			t.Fatalf("skipped=%d err=%v, want %d, nil", skipped, err, len(ids))
		}
		if got := drainScanner(t, sc); len(got) != 0 {
			t.Fatalf("scanner returned %d postings after seek past end", len(got))
		}
	})
	t.Run("repeated seeks are monotone", func(t *testing.T) {
		sc := st.ScanTag(tag)
		q1, q3 := len(ids)/4, 3*len(ids)/4
		if _, err := sc.SeekGE(ids[q3]); err != nil {
			t.Fatal(err)
		}
		// A backwards seek must not rewind.
		if skipped, err := sc.SeekGE(ids[q1]); err != nil || skipped != 0 {
			t.Fatalf("backwards seek: skipped=%d err=%v", skipped, err)
		}
		if got := drainScanner(t, sc); !equalIDs(got, ids[q3:]) {
			t.Fatalf("got %d postings, want %d", len(got), len(ids)-q3)
		}
	})
	t.Run("interleaved with Next", func(t *testing.T) {
		sc := st.ScanTag(tag)
		for i := 0; i < 2; i++ {
			if _, _, ok, err := sc.Next(); !ok || err != nil {
				t.Fatalf("Next: ok=%v err=%v", ok, err)
			}
		}
		mid := len(ids) / 2
		if _, err := sc.SeekGE(ids[mid]); err != nil {
			t.Fatal(err)
		}
		if got := drainScanner(t, sc); !equalIDs(got, ids[mid:]) {
			t.Fatalf("got %d postings, want %d", len(got), len(ids)-mid)
		}
	})
}

// TestNextBlockMatchesNext checks the batched read path against the
// document's postings, across block sizes that straddle page boundaries.
func TestNextBlockMatchesNext(t *testing.T) {
	doc := buildDoc(t, 6000)
	st, err := BuildStore(doc, 16)
	if err != nil {
		t.Fatal(err)
	}
	for tg := 0; tg < doc.NumTags(); tg++ {
		tag := xmltree.TagID(tg)
		ids := doc.NodesWithTag(tag)
		for _, blockSize := range []int{1, 7, 256, 5000} {
			sc := st.ScanTag(tag)
			var got []xmltree.NodeID
			buf := make([]xmltree.NodeID, blockSize)
			for {
				n, err := sc.NextBlock(buf)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !equalIDs(got, ids) {
				t.Fatalf("tag %d block %d: got %d postings, want %d", tg, blockSize, len(got), len(ids))
			}
		}
	}
}
