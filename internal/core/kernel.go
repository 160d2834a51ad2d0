package core

import (
	"math/bits"
	"slices"

	"sjos/internal/plan"
)

// kernel is the storage one status search runs on: flat, pointer-free
// slices, so a search of tens of thousands of statuses allocates a few dozen
// times and leaves the garbage collector nothing to scan. It carries no
// meaning of its own — the status/move model lives in space — and lives and
// dies with one search.
type kernel struct {
	// chunks is the slab: every status of the search, in creation order,
	// addressed by index (status.prev, the queue, visited) through at and
	// kept in fixed-size chunks. Full chunks are never copied or outgrown,
	// so a search pays for the statuses it makes and not for the doublings
	// of one big slice, and every chunk it drops is the size the next
	// search asks for.
	chunks  [][]status
	count   int32      // statuses in the slab
	visited indexTable // (edges, orderMask) -> slab index
	queue   []queued   // DPP's priority list, a 4-ary heap

	// One record per edge mask reached: everything expand and ubCost need
	// that depends on which edges are joined but not on how the clusters
	// are ordered. Record r's moves start at moves index first[r], one per
	// unjoined edge in edge order.
	masks indexTable // (edge mask, 0) -> record
	first []int32
	ub    []float64 // per record: ubCost of the mask
	moves []edgeMove

	cands []candidate // expand's result, overwritten by the next call

	// initial is the capacity slices and tables start from: 2^n for an
	// n-node pattern, capped, so a three-node search does not pay for the
	// first doublings of a thirteen-node one, nor the other way round.
	initial int
}

// status is one node of the status graph: which edges are joined and, per
// cluster, which pattern node orders its intermediate result (encoded as a
// bitmask with exactly one set bit per cluster). Its level — the number of
// joined edges — is popcount(edges).
type status struct {
	edges     uint32
	orderMask uint32
	cost      float64 // accumulated Cost from the start status
	prev      int32   // predecessor on the cheapest known route; -1 for the start status
	rec       int32   // the edge mask's record
	heapPos   int32   // position in the DPP priority queue (-1 if absent)
	via       move
}

// move is one alternative for evaluating an edge from some status
// (Definition 4: (aN, dN, Algo, St, Cost)). Its cost is not stored: it is
// the edgeMove entry of (predecessor's edge mask, edge).
type move struct {
	edge   int8      // edge id = descendant endpoint
	algo   plan.Algo // Stack-Tree variant
	sortBy int8      // pattern node the output is re-sorted by, or pattern.NoNode
}

// edgeMove is what joining one unjoined edge (u,v) costs under one edge
// mask. Cardinalities are per cluster, clusters per edge mask, so none of
// it depends on the status's orderings.
type edgeMove struct {
	mu, mv   uint32  // node masks of cluster(u) and cluster(v)
	next     int32   // record of mask|1<<edge, plus one; 0 until first needed
	descCost float64 // Stack-Tree-Desc join, output ordered by v
	ancCost  float64 // Stack-Tree-Anc join, output ordered by u
	sortCost float64 // re-sorting the join's output
}

// key packs a status identity; two statuses with equal keys are the same
// search state. Keys order DP's levels and break DPP's priority ties.
func (s *status) key() uint64 {
	return uint64(s.edges) | uint64(s.orderMask)<<MaxPatternNodes
}

// reset empties the kernel for a search over an n-node pattern (or for
// another of RandomPlan's walks); the tables have to start zeroed.
func (k *kernel) reset(n int) {
	k.initial = 1 << min(n, 10)
	k.chunks, k.count = k.chunks[:0], 0
	k.queue = k.queue[:0]
	if k.cands == nil {
		k.cands = make([]candidate, 0, n*n) // n-1 edges, at most n+1 moves each
	}
	k.first, k.ub, k.moves = k.first[:0], k.ub[:0], k.moves[:0]
	k.masks, k.visited = newIndexTable(k.initial), newIndexTable(k.initial)
}

// chunkShift sizes the slab's chunks: 8192 statuses, 256 KB.
const chunkShift = 13

// at returns status i; the pointer stays valid as the search adds statuses.
func (k *kernel) at(i int32) *status {
	return &k.chunks[i>>chunkShift][i&(1<<chunkShift-1)]
}

// push appends a status to the slab and returns its index. Only the last
// chunk is ever short, and only the first starts small.
func (k *kernel) push(s status) int32 {
	last := len(k.chunks) - 1
	if last < 0 || len(k.chunks[last]) == 1<<chunkShift {
		k.chunks = append(k.chunks, nil)
		last++
		if last > 0 {
			k.chunks[last] = make([]status, 0, 1<<chunkShift)
		}
	}
	k.chunks[last] = append(grown(k.chunks[last], k.initial), s)
	k.count++
	return k.count - 1
}

// grown returns s with room for at least one more element, doubling its
// capacity — from initial — when full.
func grown[T any](s []T, initial int) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(cap(s), initial))
}

// indexTable is an open-addressing hash table from a pair of 32-bit words
// to a slab index, with linear probing. Entries are never deleted.
type indexTable struct {
	slots []slot // power-of-two length
	shift uint   // 64 - log2(len(slots)): a hash's top bits are its home slot
	count int
}

type slot struct {
	a, b uint32
	ref  int32 // index plus one; 0 marks an empty slot
}

func newIndexTable(slots int) indexTable {
	return indexTable{slots: make([]slot, slots), shift: uint(64 - bits.TrailingZeros(uint(slots)))}
}

func (t *indexTable) home(a, b uint32) int {
	return int((uint64(a) | uint64(b)<<32) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the index stored under (a, b), or -1 and the slot where put
// would store it.
func (t *indexTable) find(a, b uint32) (idx int32, at int) {
	mask := len(t.slots) - 1
	for i := t.home(a, b); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return -1, i
		}
		if s.a == a && s.b == b {
			return s.ref - 1, i
		}
	}
}

// put stores idx under (a, b) at the empty slot a find just returned, and
// doubles the table once it is three quarters full.
func (t *indexTable) put(at int, a, b uint32, idx int32) {
	t.slots[at] = slot{a, b, idx + 1}
	t.count++
	if t.count*4 < len(t.slots)*3 {
		return
	}
	old, count := t.slots, t.count
	*t = newIndexTable(2 * len(old))
	t.count = count
	for _, s := range old {
		if s.ref != 0 {
			_, i := t.find(s.a, s.b)
			t.slots[i] = s
		}
	}
}

// queued is one entry of the priority list: Cost+ubCost first, the status
// key breaking ties — inline, because the equal-cost sorted variants of one
// move tie on priority. (prio, key) is a total order over distinct statuses,
// so the sequence of minima — the order DPP expands in — is the same for any
// correct heap, whatever its shape.
type queued struct {
	prio float64
	key  uint64
	idx  int32
}

const heapArity = 4

func (a *queued) less(b *queued) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.key < b.key
}

// enqueue adds status idx to the priority list, or — if it is already
// queued, with a cost that has just dropped — restores its position.
func (k *kernel) enqueue(idx int32) {
	s := k.at(idx)
	q := queued{prio: s.cost + k.ub[s.rec], key: s.key(), idx: idx}
	if s.heapPos < 0 {
		k.queue = append(grown(k.queue, k.initial), q)
		k.siftUp(len(k.queue)-1, q)
		return
	}
	// A lower cost is a lower priority value: the entry can only rise.
	k.siftUp(int(s.heapPos), q)
}

// dequeue removes and returns the status with the lowest (prio, key).
func (k *kernel) dequeue() int32 {
	top := k.queue[0].idx
	k.at(top).heapPos = -1
	last := len(k.queue) - 1
	q := k.queue[last]
	k.queue = k.queue[:last]
	if last > 0 {
		k.siftDown(q)
	}
	return top
}

// siftUp places q at position j or above.
func (k *kernel) siftUp(j int, q queued) {
	for j > 0 {
		p := (j - 1) / heapArity
		if !q.less(&k.queue[p]) {
			break
		}
		k.queue[j] = k.queue[p]
		k.at(k.queue[j].idx).heapPos = int32(j)
		j = p
	}
	k.queue[j] = q
	k.at(q.idx).heapPos = int32(j)
}

// siftDown places q at the root or below.
func (k *kernel) siftDown(q queued) {
	i, n := 0, len(k.queue)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		c := first
		for r := first + 1; r < min(first+heapArity, n); r++ {
			if k.queue[r].less(&k.queue[c]) {
				c = r
			}
		}
		if !k.queue[c].less(&q) {
			break
		}
		k.queue[i] = k.queue[c]
		k.at(k.queue[i].idx).heapPos = int32(i)
		i = c
	}
	k.queue[i] = q
	k.at(q.idx).heapPos = int32(i)
}
