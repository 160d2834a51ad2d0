package exec

import (
	"fmt"
	"math/bits"

	"sjos/internal/xmltree"
)

// MatchSet is a query result: Len rows of Width nodes, slot u of a row
// holding the node bound to pattern node u. It is the one representation a
// match has between the root operator and the caller: Collect fills it
// straight from operator output, and everything above re-slices it instead
// of copying rows.
//
// The rows lie in row-aligned chunks: chunk k holds rows [k·BatchRows,
// (k+1)·BatchRows) of the collected result, so no row straddles two chunks
// and row i is found by a shift and a mask. A set is a window [lo, hi) onto
// those rows; Slice narrows the window and shares the chunks.
type MatchSet struct {
	Width  int
	chunks [][]xmltree.NodeID
	lo, hi int
}

// Len returns the number of rows.
func (m MatchSet) Len() int { return m.hi - m.lo }

// Row returns row i (0 <= i < Len) as a view into its chunk.
func (m MatchSet) Row(i int) Tuple {
	j := uint(m.lo + i)
	c, k := m.chunks[j/BatchRows], int(j%BatchRows)*m.Width
	return Tuple(c[k : k+m.Width : k+m.Width])
}

// Slice returns rows [lo, hi) as a match set sharing m's chunks.
func (m MatchSet) Slice(lo, hi int) MatchSet {
	if lo < 0 || lo > hi || hi > m.Len() {
		panic(fmt.Sprintf("exec: MatchSet.Slice(%d, %d) of %d rows", lo, hi, m.Len()))
	}
	m.lo, m.hi = m.lo+lo, m.lo+hi
	return m
}

// Tuples returns the rows as a []Tuple: one header slice whose elements
// alias the chunks (the compatibility view of the pre-flat API).
func (m MatchSet) Tuples() []Tuple {
	out := make([]Tuple, m.Len())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// collector fills a MatchSet from root-operator output, moving every value
// from its schema slot to its pattern-node slot on the way in — the single
// copy a result row gets.
//
// A result is allocated about once, at its size, and never copied to grow
// past BatchRows rows: the first chunk follows the first batch (at least
// minRefill rows, rounded up to a power of two) and doubles until it holds
// BatchRows, and every later chunk is allocated full size. At most the last
// chunk is partly empty.
type collector struct {
	set      MatchSet
	room     int   // rows the last chunk still has space for
	perm     []int // schema slot -> pattern node
	identity bool  // perm is 0..Width-1: rows can be copied in bulk
}

func newCollector(s *Schema, n int) *collector {
	c := &collector{set: MatchSet{Width: n}, perm: s.Cols(), identity: s.Width() == n}
	for slot, pn := range c.perm {
		c.identity = c.identity && slot == pn
	}
	return c
}

// extend appends up to rows (> 0) zeroed rows to the set and returns their
// storage and count: fewer than asked when the last chunk fills, the rest
// going to the next call.
func (c *collector) extend(rows int) ([]xmltree.NodeID, int) {
	w, n := c.set.Width, c.set.hi
	switch {
	case n+c.room < BatchRows && c.room < rows:
		// The first chunk, smaller than BatchRows and too small: move its
		// n rows to one the size of the demand.
		size := min(BatchRows, 1<<bits.Len(uint(max(n+rows, minRefill)-1)))
		chunk := make([]xmltree.NodeID, n*w, size*w)
		if n == 0 {
			c.set.chunks = append(c.set.chunks, chunk)
		} else {
			copy(chunk, c.set.chunks[0])
			c.set.chunks[0] = chunk
		}
		c.room = size - n
	case c.room == 0:
		c.set.chunks = append(c.set.chunks, make([]xmltree.NodeID, 0, BatchRows*w))
		c.room = BatchRows
	}
	fit := min(rows, c.room)
	last := &c.set.chunks[len(c.set.chunks)-1]
	base := len(*last)
	*last = (*last)[:base+fit*w]
	c.set.hi += fit
	c.room -= fit
	return (*last)[base:], fit
}

func (c *collector) appendBatch(b *Batch) {
	w := c.set.Width
	for i, n := 0, b.Len(); i < n; {
		dst, fit := c.extend(n - i)
		if c.identity {
			copy(dst, b.buf[i*w:(i+fit)*w])
		} else {
			for r := 0; r < fit; r++ {
				row, out := b.Row(i+r), dst[r*w:(r+1)*w]
				for slot, pn := range c.perm {
					out[pn] = row[slot]
				}
			}
		}
		i += fit
	}
}

// pullBatches opens op, hands every root batch to sink (valid only during
// the call) and closes op, polling ctx.Interrupt once per batch. The
// execution runs on a pooled scratch, returned once op is closed whichever
// way the run ended — except by panic, which abandons it.
func pullBatches(ctx *Context, op Operator, sink func(*Batch)) error {
	sc := scratchPool.Get().(*scratch)
	ctx.scratch = sc
	err := runBatches(ctx, op, sink)
	ctx.scratch = nil
	sc.release()
	return err
}

func runBatches(ctx *Context, op Operator, sink func(*Batch)) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	b := ctx.scratch.batch(op.Schema().Width())
	for {
		if ctx.Interrupt != nil {
			if err := ctx.Interrupt(); err != nil {
				op.Close()
				return err
			}
		}
		if err := op.NextBatch(b); err != nil {
			op.Close()
			return err
		}
		if b.Len() == 0 {
			return op.Close()
		}
		ctx.Stats.Batches++
		sink(b)
	}
}

// Collect runs op to completion and returns its output as a match set over
// n pattern nodes, in pattern-node order. A row is copied exactly once, from
// operator output into its chunk.
func Collect(ctx *Context, op Operator, n int) (MatchSet, error) {
	c := newCollector(op.Schema(), n)
	if err := pullBatches(ctx, op, c.appendBatch); err != nil {
		return MatchSet{}, err
	}
	ctx.Stats.OutputTuples = c.set.Len()
	return c.set, nil
}

// Count runs op to completion, returning only the output cardinality; it
// never touches row contents, so counting costs one virtual call per batch.
func Count(ctx *Context, op Operator) (int, error) {
	n := 0
	if err := pullBatches(ctx, op, func(b *Batch) { n += b.Len() }); err != nil {
		return 0, err
	}
	ctx.Stats.OutputTuples = n
	return n, nil
}
