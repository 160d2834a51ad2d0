package exec

import (
	"sync"
	"unsafe"

	"sjos/internal/xmltree"
)

// scratch is the working memory of one execution: the batches operators
// read their children through, the slab that holds every tuple outliving its
// input batch (join stack copies, Stack-Tree-Anc buffered pairs, sort
// input), and the per-operator stacks, pair lists and sort arrays. Operators
// borrow from it and never give anything back; the driver that took it from
// the pool (pullBatches) returns it whole, once, after the root's Close — so
// Limit's early upstream Close, error unwinds and cancelled executions need no
// per-operator bookkeeping, and an execution that panics never returns its
// scratch at all.
//
// Everything in it is pointer-free: a retained tuple is an int32 handle into
// the slab (chunk index × slabChunk + offset), not a slice, so pooled memory
// is never scanned and a push or a buffered pair raises no write barrier.
// Results are not scratch: a MatchSet's backing array outlives the execution
// and is never pooled.
type scratch struct {
	chunks [][]xmltree.NodeID // the tuple slab, slabChunk IDs each
	used   int                // chunks in use; the last one is being filled
	off    int                // IDs used in the chunk being filled

	batches   [][]*Batch // by width
	batchUsed []int

	joins     []*joinState
	joinsUsed int
	sorts     []*sortState
	sortsUsed int
}

const (
	slabChunkBits = 14
	// slabChunk is the slab's chunk size in node IDs (64 KB): large enough
	// that a chunk serves thousands of tuples, small enough that a point
	// query's scratch stays a few hundred KB.
	slabChunk = 1 << slabChunkBits
	// slabMaxChunks bounds what an int32 handle can address (8 GB of IDs).
	slabMaxChunks = 1 << (31 - slabChunkBits)
	// scratchCap is the most memory a scratch may hold and still return to
	// the pool; one execution over a huge document must not pin its
	// high-water mark for every later one.
	scratchCap = 8 << 20
)

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// alloc reserves n node IDs in the slab and returns their handle and storage.
// The storage holds whatever the previous execution left there.
func (s *scratch) alloc(n int) (int32, []xmltree.NodeID) {
	if s.used == 0 || s.off+n > slabChunk {
		if n > slabChunk || s.used == slabMaxChunks {
			// A tuple is at most one ID per pattern node, and 8 GB of
			// retained tuples is past anything that fits in memory: only a
			// bug gets here. The query boundary turns it into a PanicError.
			panic("exec: tuple slab exhausted")
		}
		if s.used == len(s.chunks) {
			s.chunks = append(s.chunks, make([]xmltree.NodeID, slabChunk))
		}
		s.used++
		s.off = 0
	}
	off := s.off
	s.off += n
	return int32((s.used-1)<<slabChunkBits | off), s.chunks[s.used-1][off : off+n : off+n]
}

// keep copies t into the slab and returns its handle.
func (s *scratch) keep(t Tuple) int32 {
	h, dst := s.alloc(len(t))
	copy(dst, t)
	return h
}

// tuple returns the n-wide tuple alloc handed out as h.
func (s *scratch) tuple(h int32, n int) Tuple {
	off := int(h) & (slabChunk - 1)
	return Tuple(s.chunks[h>>slabChunkBits][off : off+n : off+n])
}

// ids borrows n node IDs of plain storage (a scan's posting block).
func (s *scratch) ids(n int) []xmltree.NodeID {
	_, b := s.alloc(n)
	return b
}

// batch borrows an empty batch of the given width, capped at BatchRows: a
// pooled batch may still carry a limited execution's cap.
func (s *scratch) batch(width int) *Batch {
	for len(s.batches) <= width {
		s.batches = append(s.batches, nil)
		s.batchUsed = append(s.batchUsed, 0)
	}
	if s.batchUsed[width] == len(s.batches[width]) {
		s.batches[width] = append(s.batches[width], NewBatch(width))
	}
	b := s.batches[width][s.batchUsed[width]]
	s.batchUsed[width]++
	b.Reset()
	b.SetCap(BatchRows)
	return b
}

// join borrows one join's growable state, emptied.
func (s *scratch) join() *joinState {
	if s.joinsUsed == len(s.joins) {
		s.joins = append(s.joins, new(joinState))
	}
	js := s.joins[s.joinsUsed]
	s.joinsUsed++
	*js = joinState{stack: js.stack[:0], pairs: js.pairs[:0], emitRBuf: js.emitRBuf[:0]}
	return js
}

// sort borrows one sort's key/handle array, emptied.
func (s *scratch) sort() *sortState {
	if s.sortsUsed == len(s.sorts) {
		s.sorts = append(s.sorts, new(sortState))
	}
	st := s.sorts[s.sortsUsed]
	s.sortsUsed++
	st.items = st.items[:0]
	return st
}

// size returns the bytes the scratch holds on to.
func (s *scratch) size() int {
	const id = int(unsafe.Sizeof(xmltree.NodeID(0)))
	n := len(s.chunks) * slabChunk * id
	for _, bs := range s.batches {
		for _, b := range bs {
			n += cap(b.buf) * id
		}
	}
	for _, js := range s.joins {
		n += cap(js.stack)*int(unsafe.Sizeof(stackEntry{})) + cap(js.pairs)*int(unsafe.Sizeof(pairNode{})) + cap(js.emitRBuf)*id
	}
	for _, st := range s.sorts {
		n += cap(st.items) * int(unsafe.Sizeof(sortItem{}))
	}
	return n
}

// release returns a pooled scratch after the root operator's Close. Nothing
// of the execution may be touched afterwards; race builds make sure of it by
// overwriting everything that was lent out with values no document has
// (poisonScratch), so a stale alias indexes out of range instead of reading
// the next execution's rows.
func (s *scratch) release() {
	if poisonScratch {
		s.poison()
	}
	if s.size() > scratchCap {
		return
	}
	s.used, s.off, s.joinsUsed, s.sortsUsed = 0, 0, 0, 0
	clear(s.batchUsed)
	scratchPool.Put(s)
}

// poison overwrites every borrowed region: slab and batch IDs with
// InvalidNode, handles and list links with -1.
func (s *scratch) poison() {
	fill := func(ids []xmltree.NodeID) {
		for i := range ids {
			ids[i] = xmltree.InvalidNode
		}
	}
	for _, c := range s.chunks[:s.used] {
		fill(c)
	}
	for w, bs := range s.batches {
		for _, b := range bs[:s.batchUsed[w]] {
			fill(b.buf[:cap(b.buf)])
		}
	}
	for _, js := range s.joins[:s.joinsUsed] {
		stack, pairs := js.stack[:cap(js.stack)], js.pairs[:cap(js.pairs)]
		for i := range stack {
			stack[i] = stackEntry{t: [1]xmltree.NodeID{xmltree.InvalidNode}, h: -1, selfList: pairList{-1, -1}, inheritLst: pairList{-1, -1}}
		}
		for i := range pairs {
			pairs[i] = pairNode{h: -1, next: -1}
		}
		fill(js.emitRBuf[:cap(js.emitRBuf)])
	}
	for _, st := range s.sorts[:s.sortsUsed] {
		items := st.items[:cap(st.items)]
		for i := range items {
			items[i] = sortItem{h: -1}
		}
	}
}
