package exec

// Limit caps an operator's output at n tuples and does only the work those
// n need: it puts n on the context as the execution's demand, so every batch
// reader below starts with a batch of about n rows, and it caps each batch
// it asks its input for at the rows it still owes. The moment the n-th tuple
// is delivered the upstream subtree is Closed, so its resources (sort
// buffers, stacks, scan cursors) are released before the caller finishes
// consuming the stream. Combined with fully-pipelined plans it delivers the
// paper's §3.4 motivation measurably: non-blocking plans produce their first
// results long before the full result is computed, which blocking
// (sort-containing) plans cannot do.
type Limit struct {
	input     Operator
	n         int
	done      int
	exhausted bool  // input ended before n tuples
	closed    bool  // input has been Closed (early or via Close)
	closeErr  error // latched error from an early upstream Close
}

// NewLimit wraps input, emitting at most n tuples.
func NewLimit(input Operator, n int) *Limit {
	if n < 0 {
		n = 0
	}
	return &Limit{input: input, n: n}
}

// Schema implements Operator.
func (l *Limit) Schema() *Schema { return l.input.Schema() }

// Open implements Operator: n becomes the execution's demand.
func (l *Limit) Open(ctx *Context) error {
	ctx.demand = l.n
	return l.input.Open(ctx)
}

// NextBatch implements Operator: each pull is capped at the rows still owed
// (an input that overfills is truncated all the same), and the upstream
// subtree is closed the moment the cap is reached.
func (l *Limit) NextBatch(b *Batch) error {
	b.Reset()
	if l.done >= l.n || l.exhausted {
		// The stream is over; surface a latched early-Close failure once
		// the cap was reached, otherwise plain end-of-stream.
		return l.closeErr
	}
	b.SetCap(l.n - l.done)
	if err := l.input.NextBatch(b); err != nil {
		return err
	}
	if b.Len() == 0 {
		l.exhausted = true
		return nil
	}
	if l.done+b.Len() >= l.n {
		b.Truncate(l.n - l.done)
		l.done = l.n
		// Cap reached: stop pulling and release the upstream subtree now.
		l.closed = true
		l.closeErr = l.input.Close()
		return nil
	}
	l.done += b.Len()
	return nil
}

// Close implements Operator. If the cap was reached the input was already
// closed by NextBatch; Close then reports any latched early-Close failure
// without closing the input a second time.
func (l *Limit) Close() error {
	if l.closed {
		return l.closeErr
	}
	l.closed = true
	return l.input.Close()
}
