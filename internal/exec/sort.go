package exec

import (
	"cmp"
	"slices"

	"sjos/internal/xmltree"
)

// Sort is the blocking re-order operator: it materialises its entire input,
// sorts it by the document start position of one pattern node's column, and
// then streams the result. It is the only blocking operator, so plans
// without Sort nodes are fully pipelined.
//
// The input is copied into the execution's scratch slab and ordered through
// an array of (key, handle) pairs: the comparison reads no tuple and the
// array holds no pointer.
type Sort struct {
	input  Operator
	by     int // pattern node to order by
	col    int
	schema *Schema

	sc     *scratch
	st     *sortState
	pos    int
	loaded bool
	err    error // latched load failure: every later NextBatch returns it
	ctx    *Context
}

// sortState is a sort's key/handle array, borrowed from the scratch.
type sortState struct{ items []sortItem }

// sortItem is one buffered tuple: its sort key and its slab handle.
type sortItem struct {
	key xmltree.Pos
	h   int32
}

// NewSort builds a sort of input by pattern node u.
func NewSort(input Operator, u int) (*Sort, error) {
	col, ok := input.Schema().Col(u)
	if !ok {
		return nil, errColumn(u)
	}
	return &Sort{input: input, by: u, col: col, schema: input.Schema()}, nil
}

// Schema implements Operator.
func (s *Sort) Schema() *Schema { return s.schema }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) error {
	s.ctx = ctx
	s.sc = ctx.scratch
	s.st = s.sc.sort()
	return s.input.Open(ctx)
}

// row returns buffered tuple i: a view of the slab.
func (s *Sort) row(i int) Tuple { return s.sc.tuple(s.st.items[i].h, s.schema.Width()) }

// NextBatch implements Operator: the first call materialises the whole input
// (one virtual call per input batch), and the sorted buffer is then served in
// batch-sized runs.
func (s *Sort) NextBatch(b *Batch) error {
	b.Reset()
	if s.err != nil {
		return s.err
	}
	if !s.loaded {
		if err := s.load(); err != nil {
			// Latch the failure: a partially-loaded buffer is not valid
			// output, so every later NextBatch must keep failing instead
			// of serving the unsorted remnant.
			s.err = err
			return err
		}
	}
	for s.pos < len(s.st.items) && !b.Full() {
		b.AppendRow(s.row(s.pos))
		s.pos++
	}
	return nil
}

// buffer copies t into the slab and records its key.
func (s *Sort) buffer(t Tuple) {
	s.st.items = append(s.st.items, sortItem{key: s.ctx.Doc.Start(t[s.col]), h: s.sc.keep(t)})
}

// load drains the input into the slab and sorts it.
func (s *Sort) load() error {
	s.loaded = true
	in := s.sc.batch(s.schema.Width())
	for {
		if err := s.input.NextBatch(in); err != nil {
			return err
		}
		if in.Len() == 0 {
			break
		}
		for i := 0; i < in.Len(); i++ {
			s.buffer(in.Row(i))
		}
	}
	s.sortBuf()
	return nil
}

func (s *Sort) sortBuf() {
	s.ctx.Stats.SortedTuples += len(s.st.items)
	// Stable, so equal keys keep their upstream order — deterministic
	// output for result comparison across plans.
	slices.SortStableFunc(s.st.items, func(a, b sortItem) int { return cmp.Compare(a.key, b.key) })
}

// Close implements Operator.
func (s *Sort) Close() error { return s.input.Close() }
