package exec

import (
	"slices"

	"sjos/internal/xmltree"
)

// MatchSet is a query result in flat form: row i is
// Nodes[i*Width:(i+1)*Width], with slot u holding the node bound to pattern
// node u. It is the one representation a match has between the root
// operator and the caller: Collect fills it straight from operator output,
// and everything above re-slices it instead of copying rows.
type MatchSet struct {
	Width int
	Nodes []xmltree.NodeID
}

// Len returns the number of rows.
func (m MatchSet) Len() int {
	if m.Width == 0 {
		return 0
	}
	return len(m.Nodes) / m.Width
}

// Row returns row i as a view into the backing array.
func (m MatchSet) Row(i int) Tuple {
	return Tuple(m.Nodes[i*m.Width : (i+1)*m.Width : (i+1)*m.Width])
}

// Slice returns rows [lo, hi) as a match set sharing m's backing array.
func (m MatchSet) Slice(lo, hi int) MatchSet {
	return MatchSet{Width: m.Width, Nodes: m.Nodes[lo*m.Width : hi*m.Width : hi*m.Width]}
}

// Tuples returns the rows as a []Tuple: one header slice whose elements
// alias the backing array (the compatibility view of the pre-flat API).
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
type collector struct {
	set      MatchSet
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

// extend makes room for rows more rows and returns their (zeroed) storage.
// Capacity at least doubles on growth, so a result is allocated O(log n)
// times and at most ~3x its final size in total.
func (c *collector) extend(rows int) []xmltree.NodeID {
	base, n := len(c.set.Nodes), rows*c.set.Width
	if base+n > cap(c.set.Nodes) {
		c.set.Nodes = slices.Grow(c.set.Nodes, max(n, base))
	}
	c.set.Nodes = c.set.Nodes[:base+n]
	return c.set.Nodes[base:]
}

func (c *collector) appendBatch(b *Batch) {
	dst := c.extend(b.Len())
	if c.identity {
		copy(dst, b.buf)
		return
	}
	w := c.set.Width
	for i, n := 0, b.Len(); i < n; i++ {
		row, out := b.Row(i), dst[i*w:(i+1)*w]
		for slot, pn := range c.perm {
			out[pn] = row[slot]
		}
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
// operator output into the set's backing array.
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
