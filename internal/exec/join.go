package exec

import (
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// StackTreeJoin evaluates one pattern edge with the Stack-Tree family of
// merge joins (Al-Khalifa et al., ICDE 2002), generalised to tuple streams:
// the left input is a stream of partial matches ordered by the ancestor
// column, the right input a stream ordered by the descendant column. Both
// variants share the streaming skeleton; they differ in when joined pairs
// are emitted:
//
//   - Desc emits each right tuple's matches immediately (output ordered by
//     the descendant column) and never buffers output;
//   - Anc outputs the pairs of the stack's bottom entry as it forms them and
//     buffers every other entry's in self/inherit lists, released when the
//     entry leaves an empty stack (output ordered by the ancestor column).
//     The bottom's own pairs precede everything it inherits, and nothing is
//     ready while the stack is non-empty, so the direct rows are in place.
//     The buffering is what the cost model's 2·|AB|·f_IO term charges for.
//
// Both drivers compare document order by NodeID: IDs are dense and assigned
// in pre-order (xmltree.Document.Validate checks it, AppendMember keeps it in
// a forest), so Start(a) < Start(d) is a < d. They read the current rows in
// place from the inputs' batch buffers, and the region columns from the
// document's arrays. Both skip ahead on both inputs:
//
//   - The right input is read first, and the left one not at all if the
//     right is empty. Whenever the stack is empty and the next ancestor comes
//     after the current descendant, every right tuple before that ancestor is
//     provably dead, so the right input is seeked to the ancestor's NodeID
//     (Seeker) rather than drained.
//   - Both touch only left tuples that can still join: one whose region ends
//     before the current right tuple d starts ends before every later one
//     too, and is passed over (skipDead), never pushed. A left input that
//     can seek is not read up to d at all: every left tuple before d that is
//     not an ancestor of d is dead, and d's ancestors that can be in the left
//     input are those carrying the ancestor pattern node's tag, found by
//     walking d's parent column (liveFrom). So the input is seeked to the
//     outermost of them when it opens, and again, past the rows already
//     passed, wherever a dead run reaches the end of its buffer.
//   - On a `/` edge only the top of the stack is probed (firstMatch).
type StackTreeJoin struct {
	algo    plan.Algo
	axis    pattern.Axis
	left    Operator
	right   Operator
	lCol    int    // ancestor column in left schema
	lw      int    // left schema width
	rCol    int    // descendant column in right schema
	ancTag  string // the ancestor pattern node's tag: every left row's lCol carries it
	schema  *Schema
	ctx     *Context
	started bool

	// The document's region columns, indexed by NodeID, and the parent and
	// tag columns liveFrom walks.
	start, end []xmltree.Pos
	level      []uint16
	parent     []xmltree.NodeID
	tag        []xmltree.TagID
	lTag       xmltree.TagID // ancTag's TagID

	// Desc emission state: the right tuple in emitRBuf still has to be
	// paired with stack[emitIdx:emitEnd] (bottom..top). It is set only when
	// a batch fills mid-emission, and the stack does not change until the
	// next call has drained it.
	emitIdx, emitEnd int

	// stack and pairs are joinState's, taken by Open and handed back by
	// Close (so the scratch keeps what they grew to); while the join is open
	// joinState's copies are stale. The copy exists for speed: reached
	// through the joinState pointer instead, the Desc flat and Anc dense and
	// flat lanes ran up to 1.3x slower (EXPERIMENTS.md).
	stack []stackEntry
	pairs []pairNode

	// Anc buffering state: freePairs heads the recycled nodes of the pairs
	// slab; ready is the finished output, consumed from its head.
	freePairs int32
	ready     pairList

	// sc is the execution's scratch: the slab every retained tuple (stack
	// copies, Anc buffered pairs) lives in, addressed by handle, and the
	// lender of the join's growable state.
	sc *scratch
	*joinState
}

// joinState is the part of a join that grows with its input, borrowed from
// the scratch so a repeated execution finds it already at working size.
type joinState struct {
	// Stack entries are values in one reusable slice, so a push allocates
	// nothing once the stack has reached its working depth.
	stack []stackEntry

	// Anc output pairs wait in linked lists threaded through one node slab
	// (index 0 is the nil sentinel), so appending a pair, handing a popped
	// entry's lists to its parent and queueing them as ready output are all
	// O(1) and allocation-free in steady state; a served node returns to the
	// free list.
	pairs []pairNode

	// Block readers over the inputs and a copy of the right tuple under a
	// cut-short emission (the reader may refill under it).
	lr, rr   batchReader
	emitRBuf Tuple
}

type stackEntry struct {
	t          [1]xmltree.NodeID // the ancestor node: a width-1 left tuple (every index scan), whole
	end        xmltree.Pos
	level      uint16
	h          int32    // a wider left tuple, copied to the scratch slab
	selfList   pairList // Anc only
	inheritLst pairList // Anc only
}

// pairList is a FIFO of buffered output tuples: head and tail index the
// join's pairs slab, 0 meaning empty.
type pairList struct{ head, tail int32 }

// pairNode is one buffered output tuple (its slab handle) and its successor.
type pairNode struct{ h, next int32 }

// addPair appends the output tuple at handle h to l.
func (j *StackTreeJoin) addPair(l *pairList, h int32) {
	n := j.freePairs
	if n != 0 {
		j.freePairs = j.pairs[n].next
		j.pairs[n] = pairNode{h: h}
	} else {
		if len(j.pairs) == 0 {
			j.pairs = append(j.pairs, pairNode{}) // the nil sentinel
		}
		n = int32(len(j.pairs))
		j.pairs = append(j.pairs, pairNode{h: h})
	}
	if l.head == 0 {
		l.head = n
	} else {
		j.pairs[l.tail].next = n
	}
	l.tail = n
}

// concat moves every tuple of src to the end of dst.
func (j *StackTreeJoin) concat(dst *pairList, src pairList) {
	switch {
	case src.head == 0:
	case dst.head == 0:
		*dst = src
	default:
		j.pairs[dst.tail].next = src.head
		dst.tail = src.tail
	}
}

// NewStackTreeJoin joins left (ordered by pattern node anc) with right
// (ordered by pattern node desc) on an edge with the given axis, using the
// chosen algorithm variant. ancTag is pattern node anc's tag, which every
// left row's anc column carries; the join seeks a left input that can seek
// by it, and "" reads the left input in full.
func NewStackTreeJoin(left, right Operator, anc, desc int, ancTag string, ax pattern.Axis, algo plan.Algo) (*StackTreeJoin, error) {
	lCol, ok := left.Schema().Col(anc)
	if !ok {
		return nil, errColumn(anc)
	}
	rCol, ok := right.Schema().Col(desc)
	if !ok {
		return nil, errColumn(desc)
	}
	return &StackTreeJoin{
		algo:   algo,
		axis:   ax,
		left:   left,
		right:  right,
		lCol:   lCol,
		lw:     left.Schema().Width(),
		rCol:   rCol,
		ancTag: ancTag,
		schema: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema implements Operator.
func (j *StackTreeJoin) Schema() *Schema { return j.schema }

// Open implements Operator.
func (j *StackTreeJoin) Open(ctx *Context) error {
	j.ctx = ctx
	j.start, j.end, j.level = ctx.Doc.Regions()
	j.parent, j.tag = ctx.Doc.Links()
	j.sc = ctx.scratch
	j.joinState = j.sc.join()
	j.stack, j.pairs = j.joinState.stack, j.joinState.pairs
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	if err := j.right.Open(ctx); err != nil {
		j.left.Close()
		return err
	}
	return nil
}

// Close implements Operator.
func (j *StackTreeJoin) Close() error {
	if j.joinState != nil {
		j.joinState.stack, j.joinState.pairs = j.stack, j.pairs
	}
	err := j.left.Close()
	if err2 := j.right.Close(); err == nil {
		err = err2
	}
	return err
}

// NextBatch implements Operator: the Stack-Tree drivers consume the inputs
// through block readers and produce whole batches, with skip-ahead over dead
// regions of both inputs. The drivers count stack operations and buffered
// pairs in locals; they reach the execution's Stats here, once a batch.
func (j *StackTreeJoin) NextBatch(b *Batch) error {
	b.Reset()
	if !j.started {
		j.started = true
		if err := j.openReaders(); err != nil {
			return err
		}
	}
	var ops, buffered int
	var err error
	if j.algo == plan.AlgoDesc {
		ops, err = j.nextDesc(b)
	} else {
		ops, buffered, err = j.nextAnc(b)
	}
	j.ctx.Stats.StackOps += ops
	j.ctx.Stats.BufferedPairs += buffered
	return err
}

// openReaders opens the readers, right first: an empty right input leaves the
// left one unread, and a left input that can seek starts at the first row
// that can be live for the first right row.
func (j *StackTreeJoin) openReaders() error {
	j.lr.init(j.ctx, j.left)
	j.rr.init(j.ctx, j.right)
	if t, ok := j.ctx.Doc.LookupTag(j.ancTag); ok {
		j.lTag = t
	} else {
		j.lr.seeker = nil
	}
	if err := j.rr.pull(); err != nil || !j.rr.ok() {
		return err
	}
	if j.lr.seeker == nil {
		return j.lr.pull()
	}
	return j.lr.skipTo(j.liveFrom(j.rr.id(j.rCol), 0))
}

// liveFrom returns the outermost proper ancestor of d, from node from on,
// that carries the ancestor pattern node's tag, or d if none does. No left
// row before it can join d or any later right row: a left row before d that
// is not d's ancestor ends before d starts.
func (j *StackTreeJoin) liveFrom(d, from xmltree.NodeID) xmltree.NodeID {
	live := d
	for p := j.parent[d]; p != xmltree.InvalidNode && p >= from; p = j.parent[p] {
		if j.tag[p] == j.lTag {
			live = p
		}
	}
	return live
}

// skipDead passes over the left reader's dead run before the right node d.
// Where the run reaches the end of a left buffer that can seek, the rest of
// it is sought over: the next row that can be live is d's outermost tagged
// ancestor after the last row passed.
func (j *StackTreeJoin) skipDead(d xmltree.NodeID) error {
	ranOff, err := j.lr.skipDead(j.end, j.start[d], j.lCol)
	if !ranOff || err != nil {
		return err
	}
	return j.lr.skipTo(j.liveFrom(d, j.lr.last(j.lCol)+1))
}

// leftOf returns the left tuple a stack entry was pushed with; a width-1
// tuple is a view of the entry itself, valid while the entry is on the stack.
func (j *StackTreeJoin) leftOf(e *stackEntry) Tuple {
	if j.lw == 1 {
		return e.t[:]
	}
	return j.sc.tuple(e.h, j.lw)
}

// firstMatch returns the lowest stack entry that satisfies the edge's axis
// with the right node d; every entry above it does too. All entries already
// contain d structurally, so on a `/` edge its parents are the run of top
// entries one level above it: levels never fall from bottom to top, and are
// equal only where a tuple stream repeats an ancestor node.
func (j *StackTreeJoin) firstMatch(d xmltree.NodeID) int {
	if j.axis == pattern.Descendant {
		return 0
	}
	i, dLevel := len(j.stack), j.level[d]
	for i > 0 && j.stack[i-1].level+1 == dLevel {
		i--
	}
	return i
}

// push puts the left reader's current row on the stack, in place; a wide
// tuple aliases the reader's batch, so its entry keeps a slab copy.
func (j *StackTreeJoin) push(a xmltree.NodeID) {
	n := len(j.stack)
	if n == cap(j.stack) {
		j.stack = append(j.stack, stackEntry{})
	}
	j.stack = j.stack[:n+1]
	e := &j.stack[n]
	*e = stackEntry{t: [1]xmltree.NodeID{a}, end: j.end[a], level: j.level[a]}
	if j.lw > 1 {
		e.h = j.sc.keep(j.lr.row())
	}
}

// openAt returns how many stack entries are still open at pos: the ones
// that end before it are a run at the top, as the regions on the stack nest.
func (j *StackTreeJoin) openAt(pos xmltree.Pos) int {
	n := len(j.stack)
	for n > 0 && j.stack[n-1].end < pos {
		n--
	}
	return n
}

// expireTo drops the entries of a Desc stack that end before pos and
// returns how many. Anc entries leave through pop, which hands their
// buffered pairs on; a helper that calls it is too big to inline, and the
// call cost the flat lanes ~10-20 %.
func (j *StackTreeJoin) expireTo(pos xmltree.Pos) int {
	n := j.openAt(pos)
	k := len(j.stack) - n
	j.stack = j.stack[:n]
	return k
}

// nextDesc is the Stack-Tree-Desc driver. Each right row is paired with the
// stack as it arrives, written straight into the batch's buffer, held in out
// until the call returns; only when the batch fills mid-emission is the row
// copied aside, for the next call to finish.
func (j *StackTreeJoin) nextDesc(b *Batch) (ops int, err error) {
	out, full := b.buf, b.rowCap*b.width
	if j.emitIdx < j.emitEnd {
		k := min(j.emitEnd-j.emitIdx, (full-len(out))/b.width)
		out = j.emitWide(out, j.emitIdx, j.emitIdx+k, j.emitRBuf)
		j.emitIdx += k
	}
	start, end, lCol, rCol := j.start, j.end, j.lCol, j.rCol
	lr, rr := &j.lr, &j.rr
scan:
	for j.emitIdx == j.emitEnd && rr.ok() && len(out) < full {
		d := rr.id(rCol)
		// Every left row that starts before d is dead if it ends before d,
		// else pushed after expiring what ended before it.
		for lr.ok() {
			a := lr.id(lCol)
			if a >= d {
				break
			}
			if end[a] < start[d] {
				err = j.skipDead(d)
			} else {
				ops += j.expireTo(start[a]) + 1
				j.push(a)
				err = lr.advance()
			}
			if err != nil {
				break scan
			}
		}
		if len(j.stack) == 0 {
			// Nothing open: no right row before the next ancestor can join.
			if !lr.ok() {
				rr.stop()
				break
			}
			if a := lr.id(lCol); a > d {
				if err = rr.seek(a, rCol); err != nil {
					break
				}
				continue
			}
		}
		ops += j.expireTo(start[d])
		if lo := j.firstMatch(d); lo < len(j.stack) {
			k := min(len(j.stack)-lo, (full-len(out))/b.width)
			if j.lw == 1 && rr.w == 1 {
				out = j.emit(out, lo, lo+k, d)
			} else {
				out = j.emitWide(out, lo, lo+k, rr.row())
			}
			if lo+k < len(j.stack) {
				j.emitRBuf = append(j.emitRBuf[:0], rr.row()...)
				j.emitIdx, j.emitEnd = lo+k, len(j.stack)
			}
		}
		err = rr.advance()
	}
	b.buf, b.rows = out, len(out)/b.width
	return ops, err
}

// nextAnc is the Stack-Tree-Anc driver. The bottom entry's pair with a right
// row is output as it forms (at most one row, and the batch was not full); a
// pair under any other entry is built in the slab — it outlives the right
// row — and waits on that entry's self list. Output goes through out, as in
// nextDesc.
func (j *StackTreeJoin) nextAnc(b *Batch) (ops, buffered int, err error) {
	out, full := b.buf, b.rowCap*b.width
	start, end, lCol, rCol := j.start, j.end, j.lCol, j.rCol
	lr, rr := &j.lr, &j.rr
scan:
	for err == nil {
		for j.ready.head != 0 && len(out) < full {
			out = append(out, j.popReady()...)
		}
		if j.ready.head != 0 {
			break
		}
		if !rr.ok() {
			if len(j.stack) == 0 {
				break
			}
			for len(j.stack) > 0 {
				j.pop()
				ops++
			}
			continue
		}
		if len(out) >= full {
			break
		}
		d := rr.id(rCol)
		// As in nextDesc; a pop that empties the stack readies output, which
		// goes out first.
		for lr.ok() && j.ready.head == 0 {
			a := lr.id(lCol)
			if a >= d {
				break
			}
			if end[a] < start[d] {
				err = j.skipDead(d)
			} else {
				for n := j.openAt(start[a]); len(j.stack) > n; ops++ {
					j.pop()
				}
				j.push(a)
				ops++
				err = lr.advance()
			}
			if err != nil {
				break scan
			}
		}
		if j.ready.head != 0 {
			continue
		}
		if len(j.stack) == 0 {
			if !lr.ok() {
				rr.stop()
				continue
			}
			if a := lr.id(lCol); a > d {
				err = rr.seek(a, rCol)
				continue
			}
		}
		for n := j.openAt(start[d]); len(j.stack) > n; ops++ {
			j.pop()
		}
		lo := j.firstMatch(d)
		buffered += len(j.stack) - lo
		r := rr.row()
		if lo == 0 && len(j.stack) > 0 {
			if j.lw == 1 && rr.w == 1 {
				out = append(out, j.stack[0].t[0], d)
			} else {
				out = j.emitWide(out, 0, 1, r)
			}
			lo = 1
		}
		for i := lo; i < len(j.stack); i++ {
			j.bufferPair(&j.stack[i], r)
		}
		err = rr.advance()
	}
	b.buf, b.rows = out, len(out)/b.width
	return ops, buffered, err
}

// emit appends to out the pairs of the stack entries from..to-1 with the
// right node d, for single-node tuples on both sides: the common case, kept
// small enough to inline.
func (j *StackTreeJoin) emit(out []xmltree.NodeID, from, to int, d xmltree.NodeID) []xmltree.NodeID {
	for i := from; i < to; i++ {
		out = append(out, j.stack[i].t[0], d)
	}
	return out
}

// emitWide is emit for tuples of any width, r the whole right tuple.
func (j *StackTreeJoin) emitWide(out []xmltree.NodeID, from, to int, r Tuple) []xmltree.NodeID {
	for i := from; i < to; i++ {
		out = append(append(out, j.leftOf(&j.stack[i])...), r...)
	}
	return out
}

// bufferPair builds the pair of e's left tuple and the right row r in the
// slab and appends it to e's self list.
func (j *StackTreeJoin) bufferPair(e *stackEntry, r Tuple) {
	h, dst := j.sc.alloc(j.lw + len(r))
	if j.lw == 1 {
		dst[0] = e.t[0]
	} else {
		copy(dst, j.sc.tuple(e.h, j.lw))
	}
	if len(r) == 1 {
		dst[j.lw] = r[0]
	} else {
		copy(dst[j.lw:], r)
	}
	j.addPair(&e.selfList, h)
}

// popReady serves the head of the ready queue — a view of the slab, valid
// for the life of the scratch — and puts its node back on the free list.
func (j *StackTreeJoin) popReady() Tuple {
	n := j.ready.head
	t := j.sc.tuple(j.pairs[n].h, j.schema.Width())
	if j.ready.head = j.pairs[n].next; j.ready.head == 0 {
		j.ready.tail = 0
	}
	j.pairs[n] = pairNode{next: j.freePairs}
	j.freePairs = n
	return t
}

// pop removes the top entry of an Anc stack and releases its buffered
// output: if an enclosing entry remains on the stack, the output must wait
// for it (its ancestor column starts earlier), so it is appended to that
// entry's inherit list; otherwise it is final and moves to the ready queue.
func (j *StackTreeJoin) pop() {
	n := len(j.stack) - 1
	e := &j.stack[n]
	j.stack = j.stack[:n]
	if e.selfList.head|e.inheritLst.head == 0 {
		return
	}
	out := e.selfList
	j.concat(&out, e.inheritLst)
	if n > 0 {
		j.concat(&j.stack[n-1].inheritLst, out)
		return
	}
	j.concat(&j.ready, out)
}
