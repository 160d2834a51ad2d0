package exec

import (
	"math/rand"
	"slices"
	"testing"

	"sjos/internal/xmltree"
)

// TestMatchSetChunks holds a collected match set to a flat reference: widths
// 1–6, identity and permuted schemas, batches of 0–1024 rows, and totals
// that end before, on and past the first, second and later chunk
// boundaries. Len, Row, Slice (nested too) and Tuples must read the
// reference's rows in pattern-node order, every chunk but the last must be
// full, and at most one chunk may be partly empty.
func TestMatchSetChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	totals := []int{0, 1, 15, 16, 17, 600, BatchRows - 1, BatchRows, BatchRows + 1,
		2*BatchRows - 1, 2 * BatchRows, 2*BatchRows + 1, 5*BatchRows + 37}
	for trial := 0; trial < 120; trial++ {
		w := 1 + trial%6
		cols := make([]int, w)
		for i := range cols {
			cols[i] = i
		}
		if trial%12 >= 6 {
			rng.Shuffle(w, func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		}
		total := totals[rng.Intn(len(totals))]

		c := newCollector(NewSchema(cols...), w)
		var want []Tuple // pattern-node order
		b := NewBatch(w)
		for len(want) < total {
			b.Reset()
			n := min(rng.Intn(BatchRows+1), total-len(want))
			if rng.Intn(4) == 0 {
				n = min(1+rng.Intn(20), total-len(want)) // small batches grow the first chunk
			}
			for i := 0; i < n; i++ {
				row, norm := make(Tuple, w), make(Tuple, w)
				for slot := range row {
					row[slot] = xmltree.NodeID(rng.Intn(1 << 20))
					norm[cols[slot]] = row[slot]
				}
				b.AppendRow(row)
				want = append(want, norm)
			}
			c.appendBatch(b)
		}
		m := c.set

		if m.Len() != total {
			t.Fatalf("trial %d (w=%d): Len %d, want %d", trial, w, m.Len(), total)
		}
		for i := range want {
			if !slices.Equal(m.Row(i), want[i]) {
				t.Fatalf("trial %d (w=%d): row %d is %v, want %v", trial, w, i, m.Row(i), want[i])
			}
		}
		if got := m.Tuples(); len(got) != total || !exactEq(got, want[:len(got)]) {
			t.Fatalf("trial %d (w=%d): Tuples differs from the reference", trial, w)
		}
		capIDs := 0
		for k, chunk := range m.chunks {
			if k < len(m.chunks)-1 && len(chunk) != BatchRows*w {
				t.Fatalf("trial %d (w=%d): chunk %d of %d holds %d IDs, want %d", trial, w, k, len(m.chunks), len(chunk), BatchRows*w)
			}
			capIDs += cap(chunk)
		}
		// One partly empty chunk at most; below BatchRows rows, the first
		// chunk is the total rounded up to a power of two.
		if slack := capIDs - total*w; slack >= BatchRows*w || (total < BatchRows && slack >= max(minRefill, total)*w) {
			t.Fatalf("trial %d (w=%d): %d IDs of slack over %d rows", trial, w, slack, total)
		}

		for s := 0; s < 20; s++ {
			lo := rng.Intn(total + 1)
			hi := lo + rng.Intn(total-lo+1)
			sub := m.Slice(lo, hi)
			if sub.Len() != hi-lo {
				t.Fatalf("trial %d: Slice(%d, %d) has %d rows", trial, lo, hi, sub.Len())
			}
			if !exactEq(sub.Tuples(), want[lo:hi]) {
				t.Fatalf("trial %d (w=%d): Slice(%d, %d) differs from the reference", trial, w, lo, hi)
			}
			l2 := rng.Intn(hi - lo + 1)
			h2 := l2 + rng.Intn(hi-lo-l2+1)
			if !exactEq(sub.Slice(l2, h2).Tuples(), want[lo+l2:lo+h2]) {
				t.Fatalf("trial %d (w=%d): Slice(%d, %d).Slice(%d, %d) differs from the reference", trial, w, lo, hi, l2, h2)
			}
		}
	}
}

// TestMatchSetSliceBounds: a window past the set's rows panics, as slicing
// the flat backing did.
func TestMatchSetSliceBounds(t *testing.T) {
	c := newCollector(NewSchema(0), 1)
	b := NewBatch(1)
	for i := 0; i < 3; i++ {
		b.AppendID(xmltree.NodeID(i))
	}
	c.appendBatch(b)
	sub := c.set.Slice(1, 2)
	for _, r := range [][2]int{{0, 2}, {-1, 0}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) of a 1-row window did not panic", r[0], r[1])
				}
			}()
			sub.Slice(r[0], r[1])
		}()
	}
}
