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
// Both drivers skip ahead: whenever the stack is empty and the next
// ancestor starts past the current descendant, every right tuple before
// that ancestor is provably dead, so the right input is seeked (Seeker)
// rather than drained. And both touch only left tuples that can still join:
// one whose region ends before the current right tuple starts ends before
// every later one too, and is passed over (skipDead), never pushed; on a `/`
// edge only the top of the stack is probed (firstMatch).
type StackTreeJoin struct {
	algo    plan.Algo
	axis    pattern.Axis
	left    Operator
	right   Operator
	lCol    int // ancestor column in left schema
	lw      int // left schema width
	rCol    int // descendant column in right schema
	schema  *Schema
	ctx     *Context
	doc     *xmltree.Document
	started bool

	// Streaming state.
	lTuple Tuple
	lOK    bool
	rTuple Tuple
	rOK    bool

	// Desc emission state: the current right tuple still has to be paired
	// with stack[emitIdx:emitEnd] (bottom..top). The stack does not change
	// while an emission is pending — the driver drains it first.
	emitIdx, emitEnd int
	emitR            Tuple

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

	// Block readers over the inputs and a copy of the right tuple under
	// emission (the reader may refill under it).
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
	} else {
		if len(j.pairs) == 0 {
			j.pairs = append(j.pairs, pairNode{}) // the nil sentinel
		}
		j.pairs = append(j.pairs, pairNode{})
		n = int32(len(j.pairs) - 1)
	}
	j.pairs[n] = pairNode{h: h}
	j.concat(l, pairList{head: n, tail: n})
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
// chosen algorithm variant.
func NewStackTreeJoin(left, right Operator, anc, desc int, ax pattern.Axis, algo plan.Algo) (*StackTreeJoin, error) {
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
		schema: left.Schema().Concat(right.Schema()),
	}, nil
}

// Schema implements Operator.
func (j *StackTreeJoin) Schema() *Schema { return j.schema }

// Open implements Operator.
func (j *StackTreeJoin) Open(ctx *Context) error {
	j.ctx = ctx
	j.doc = ctx.Doc
	j.sc = ctx.scratch
	j.joinState = j.sc.join()
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
	err := j.left.Close()
	if err2 := j.right.Close(); err == nil {
		err = err2
	}
	return err
}

// NextBatch implements Operator: the Stack-Tree drivers consume the inputs
// through block readers and produce whole batches, with skip-ahead over dead
// regions of the right input.
func (j *StackTreeJoin) NextBatch(b *Batch) error {
	b.Reset()
	if !j.started {
		j.started = true
		j.lr.init(j.ctx, j.left)
		j.rr.init(j.ctx, j.right)
		var err error
		if j.lTuple, j.lOK, err = j.lr.next(); err != nil {
			return err
		}
		if j.rTuple, j.rOK, err = j.rr.next(); err != nil {
			return err
		}
	}
	if j.algo == plan.AlgoDesc {
		return j.nextDesc(b)
	}
	return j.nextAnc(b)
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
// with a right node at dLevel; every entry above it does too. All entries
// already contain the node structurally, so on a `/` edge its parents are the
// run of top entries one level above it: levels never fall from bottom to
// top, and are equal only where a tuple stream repeats an ancestor node.
func (j *StackTreeJoin) firstMatch(dLevel uint16) int {
	if j.axis == pattern.Descendant {
		return 0
	}
	i := len(j.stack)
	for i > 0 && j.stack[i-1].level+1 == dLevel {
		i--
	}
	return i
}

// advanceLeft consumes the current left tuple, which starts before the
// current right tuple at dStart: a tuple that also ends before it can join
// nothing from here on and is passed over with the dead run behind it;
// otherwise it is pushed, after expiring what ended before it. A wide tuple
// aliases the left reader's reusable batch, so its entry keeps a slab copy.
func (j *StackTreeJoin) advanceLeft(dStart xmltree.Pos) (err error) {
	a := j.lTuple[j.lCol]
	end := j.doc.End(a)
	if end < dStart {
		j.lTuple, j.lOK, err = j.lr.skipDead(dStart, j.doc, j.lCol)
		return err
	}
	j.expire(j.doc.Start(a))
	e := stackEntry{t: [1]xmltree.NodeID{a}, end: end, level: j.doc.Level(a)}
	if j.lw > 1 {
		e.h = j.sc.keep(j.lTuple)
	}
	j.stack = append(j.stack, e)
	j.ctx.Stats.StackOps++
	j.lTuple, j.lOK, err = j.lr.next()
	return err
}

// expire pops entries whose region ends before pos, top to bottom.
func (j *StackTreeJoin) expire(pos xmltree.Pos) {
	for len(j.stack) > 0 && j.stack[len(j.stack)-1].end < pos {
		j.pop()
	}
}

// pop removes the top entry; in the Anc variant its buffered output is
// released.
func (j *StackTreeJoin) pop() {
	top := &j.stack[len(j.stack)-1]
	j.stack = j.stack[:len(j.stack)-1]
	j.ctx.Stats.StackOps++
	if top.selfList.head|top.inheritLst.head != 0 {
		j.release(top)
	}
}

// skipRight reports whether the right input can be seeked past a dead
// region, and does so: with an empty stack, every right tuple starting
// before the next ancestor's Start matches nothing (an ancestor always
// starts before its descendants), and with the left input exhausted on an
// empty stack the rest of the right input is dead outright.
func (j *StackTreeJoin) skipRight(dStart xmltree.Pos) (bool, error) {
	if len(j.stack) > 0 {
		return false, nil
	}
	if !j.lOK {
		j.rTuple, j.rOK = nil, false
		return true, nil
	}
	lStart := j.doc.Start(j.lTuple[j.lCol])
	if lStart <= dStart {
		// Equal Start cannot happen across distinct nodes; <= keeps the
		// guard strictly-progressing either way.
		return false, nil
	}
	var err error
	j.rTuple, j.rOK, err = j.rr.seekGE(lStart, j.doc, j.rCol)
	return true, err
}

// nextDesc is the Stack-Tree-Desc driver.
func (j *StackTreeJoin) nextDesc(b *Batch) error {
	doc := j.doc
	for {
		// Drain pending emissions for the current right tuple first.
		for ; j.emitIdx < j.emitEnd; j.emitIdx++ {
			if b.Full() {
				return nil
			}
			b.AppendPair(j.leftOf(&j.stack[j.emitIdx]), j.emitR)
		}
		j.emitR = nil

		if !j.rOK {
			return nil // no right input left: join is done
		}
		if b.Full() {
			return nil
		}
		dStart := doc.Start(j.rTuple[j.rCol])
		if j.lOK && doc.Start(j.lTuple[j.lCol]) < dStart {
			if err := j.advanceLeft(dStart); err != nil {
				return err
			}
			continue
		}
		if skipped, err := j.skipRight(dStart); err != nil {
			return err
		} else if skipped {
			continue
		}
		// Process the right tuple against the stack. The emission snapshot
		// must survive advancing the right reader (which may refill its
		// batch), so the right tuple is copied into the join-owned buffer.
		j.expire(dStart)
		if lo := j.firstMatch(doc.Level(j.rTuple[j.rCol])); lo < len(j.stack) {
			j.emitRBuf = append(j.emitRBuf[:0], j.rTuple...)
			j.emitIdx, j.emitEnd = lo, len(j.stack)
			j.emitR = j.emitRBuf
		}
		var err error
		j.rTuple, j.rOK, err = j.rr.next()
		if err != nil {
			return err
		}
	}
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

// nextAnc is the Stack-Tree-Anc driver.
func (j *StackTreeJoin) nextAnc(b *Batch) error {
	doc := j.doc
	for {
		if j.ready.head != 0 {
			for j.ready.head != 0 {
				if b.Full() {
					return nil
				}
				b.AppendRow(j.popReady())
			}
			continue
		}
		if !j.rOK {
			if len(j.stack) > 0 {
				for len(j.stack) > 0 {
					j.pop()
				}
				continue
			}
			return nil
		}
		if b.Full() {
			return nil
		}
		dStart := doc.Start(j.rTuple[j.rCol])
		if j.lOK && doc.Start(j.lTuple[j.lCol]) < dStart {
			if err := j.advanceLeft(dStart); err != nil {
				return err
			}
			continue
		}
		if skipped, err := j.skipRight(dStart); err != nil {
			return err
		} else if skipped {
			continue
		}
		// Pair the right tuple with the stack: the bottom's pair is output as
		// it is (at most one row, and the batch was not full); a pair under
		// any other entry is built in the slab — it outlives the right
		// input's current row — and waits on that entry's self list.
		j.expire(dStart)
		lo := j.firstMatch(doc.Level(j.rTuple[j.rCol]))
		j.ctx.Stats.BufferedPairs += len(j.stack) - lo
		if lo == 0 && len(j.stack) > 0 {
			b.AppendPair(j.leftOf(&j.stack[0]), j.rTuple)
			lo = 1
		}
		for i := lo; i < len(j.stack); i++ {
			e := &j.stack[i]
			j.addPair(&e.selfList, j.sc.keepPair(j.leftOf(e), j.rTuple))
		}
		var err error
		j.rTuple, j.rOK, err = j.rr.next()
		if err != nil {
			return err
		}
	}
}

// release handles a popped entry in the Anc variant: if an enclosing entry
// remains on the stack, the popped entry's output must wait for it (its
// ancestor column starts earlier), so it is appended to that entry's
// inherit list; otherwise the output is final and moves to the ready queue.
func (j *StackTreeJoin) release(e *stackEntry) {
	out := e.selfList
	j.concat(&out, e.inheritLst)
	if len(j.stack) > 0 {
		j.concat(&j.stack[len(j.stack)-1].inheritLst, out)
		return
	}
	j.concat(&j.ready, out)
}
