package exec

import "sjos/internal/xmltree"

// BatchRows is the number of tuples one Batch holds: large enough to
// amortise the per-call virtual dispatch of the iterator contract over ~1K
// tuples, small enough that a batch of the widest plans stays well inside
// the L2 cache.
const BatchRows = 1024

// minRefill is the smallest first refill a reader asks for: a limit of one
// or two rows, or a join whose other side is a single probe hit, still gets
// a useful block.
const minRefill = 16

// Batch is a reusable block of tuples with one flat backing array: row i is
// the width-sized slice at offset i*width. Rows handed out by Row alias the
// backing array, so they are valid only until the batch is reset or
// refilled — consumers that retain tuples must copy them. The caller owns
// the batch it passes to NextBatch, and with it the batch's row cap: an
// operator fills at most that many rows. Operators own the batches they use
// to read their children.
type Batch struct {
	width  int
	rows   int
	rowCap int // Full at this many rows: BatchRows unless the owner capped it
	buf    []xmltree.NodeID
}

// NewBatch returns an empty batch for tuples of the given width.
func NewBatch(width int) *Batch {
	return &Batch{width: width, rowCap: BatchRows, buf: make([]xmltree.NodeID, 0, width*BatchRows)}
}

// Reset empties the batch, keeping the backing array and the row cap.
func (b *Batch) Reset() { b.rows, b.buf = 0, b.buf[:0] }

// SetCap caps the rows the next fills may put in the batch at n (at most
// BatchRows); it holds until the next SetCap.
func (b *Batch) SetCap(n int) { b.rowCap = min(n, BatchRows) }

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.rows }

// Full reports whether the batch is at its row cap.
func (b *Batch) Full() bool { return b.rows >= b.rowCap }

// Room returns how many more rows the batch takes before it is full.
func (b *Batch) Room() int { return b.rowCap - b.rows }

// Width returns the tuple width.
func (b *Batch) Width() int { return b.width }

// Row returns row i as a Tuple view into the backing array; it is valid
// only until the batch is reset or refilled.
func (b *Batch) Row(i int) Tuple {
	return Tuple(b.buf[i*b.width : (i+1)*b.width : (i+1)*b.width])
}

// AppendRow copies one tuple into the batch.
func (b *Batch) AppendRow(t Tuple) {
	b.buf = append(b.buf, t...)
	b.rows++
}

// AppendID copies a single-column row into the batch (the scan fast path).
func (b *Batch) AppendID(id xmltree.NodeID) {
	b.buf = append(b.buf, id)
	b.rows++
}

// AppendIDs bulk-copies single-column rows into the batch.
func (b *Batch) AppendIDs(ids []xmltree.NodeID) {
	b.buf = append(b.buf, ids...)
	b.rows += len(ids)
}

// Truncate drops every row past the first n.
func (b *Batch) Truncate(n int) {
	if n < b.rows {
		b.rows = n
		b.buf = b.buf[:n*b.width]
	}
}

// Seeker is the skip-ahead contract: SeekGE discards every pending output
// row whose join column holds a NodeID below id, without producing it, and
// returns the index postings bypassed. Only operators whose output is ordered
// by the sought column may implement it; NodeIDs are assigned in document
// order, so that is the column's Start order.
type Seeker interface {
	SeekGE(id xmltree.NodeID) (skipped int, err error)
}

// seekerOf returns op's skip-ahead, or nil if op cannot seek. A traced
// operator seeks exactly when the operator it wraps does, so a traced
// execution takes the path an untraced one takes.
func seekerOf(op Operator) Seeker {
	if t, ok := op.(*traced); ok {
		if _, ok := t.inner.(Seeker); !ok {
			return nil
		}
	}
	s, _ := op.(Seeker)
	return s
}

// batchReader pulls one operator's output through a batch borrowed from the
// execution's scratch and holds a current row, which the join drivers read
// in place: column c of it is buf[i+c], i counting node IDs, not rows. The
// row stays valid until the reader moves past it; moving past a batch's last
// row refills.
//
// The first refill asks for the execution's demand (a Limit at the root), at
// least minRefill rows, and each later one for twice the last, up to
// BatchRows. A first-k execution reads about what its k rows need, a join
// that seeks an input after a few rows has not read a full batch of it
// first, and a reader that needs more reaches full batches after a handful
// of refills.
type batchReader struct {
	op     Operator
	seeker Seeker // op's skip-ahead; nil if it cannot seek
	batch  *Batch
	rows   int              // the next refill's row cap
	buf    []xmltree.NodeID // the batch's rows, flat
	w      int              // row width
	i, n   int              // the current row's offset in buf, and len(buf): i < n while there is one
	eof    bool
}

// init binds the reader to op, sizing its first refill by ctx's demand; the
// first row arrives with the first pull.
func (r *batchReader) init(ctx *Context, op Operator) {
	w := op.Schema().Width()
	rows := min(max(ctx.demand, minRefill), BatchRows)
	*r = batchReader{op: op, seeker: seekerOf(op), batch: ctx.scratch.batch(w), rows: rows, w: w}
}

// pull refills the batch at the current size, doubles the next one, and
// makes the batch's first row current.
func (r *batchReader) pull() error {
	r.batch.SetCap(r.rows)
	r.rows = min(2*r.rows, BatchRows)
	r.i, r.n = 0, 0
	if err := r.op.NextBatch(r.batch); err != nil {
		return err
	}
	r.buf, r.n = r.batch.buf, len(r.batch.buf)
	r.eof = r.n == 0
	return nil
}

// ok reports whether the reader holds a current row.
func (r *batchReader) ok() bool { return r.i < r.n }

// id returns column col of the current row.
func (r *batchReader) id(col int) xmltree.NodeID { return r.buf[r.i+col] }

// row returns the current row, a view valid until the reader moves past it.
func (r *batchReader) row() Tuple { return r.buf[r.i : r.i+r.w : r.i+r.w] }

// advance moves to the next row, refilling past the batch's last.
func (r *batchReader) advance() error {
	if r.i += r.w; r.i < r.n || r.eof {
		return nil
	}
	return r.pull()
}

// stop ends the stream without reading the rest of it.
func (r *batchReader) stop() { r.i, r.n, r.eof = 0, 0, true }

// skipDead moves past the current row and the run after it whose col region
// ends before pos: the join's dead ancestors, dismissed with one End lookup
// each. On a reader that can seek, a run that reaches the end of the buffer
// stops there and reports it, the last row passed still in buf, for the
// caller to seek past the rest (skipTo); elsewhere it runs on into refills.
func (r *batchReader) skipDead(end []xmltree.Pos, pos xmltree.Pos, col int) (ranOff bool, err error) {
	for r.i += r.w; ; {
		for ; r.i < r.n; r.i += r.w {
			if end[r.buf[r.i+col]] >= pos {
				return false, nil
			}
		}
		if r.eof || r.seeker != nil {
			return !r.eof, nil
		}
		if err := r.pull(); err != nil {
			return false, err
		}
	}
}

// last returns column col of the buffer's last row.
func (r *batchReader) last(col int) xmltree.NodeID { return r.buf[r.n-r.w+col] }

// skipTo drops the buffered rows, seeks the operator to id and refills; only
// a reader that can seek calls it.
func (r *batchReader) skipTo(id xmltree.NodeID) error {
	if _, err := r.seeker.SeekGE(id); err != nil {
		return err
	}
	return r.pull()
}

// seek moves to the first row, from the current one on, whose col holds an
// id >= id. The stream is ordered by col, and a gap is usually a few rows, so
// buffered rows are galloped over: probes at doubling distances, then a
// binary search inside the last step. Once the buffer is exhausted the
// operator is seeked if it can seek, and refilled either way — an operator
// that cannot seek is drained a batch at a time by the same loop.
func (r *batchReader) seek(id xmltree.NodeID, col int) error {
	for {
		buf, w, n := r.buf, r.w, r.n
		if lo := r.i; lo < n {
			if buf[lo+col] >= id {
				return nil
			}
			// Keep buf[lo] < id, and hi at n or at a row >= id.
			hi, step := lo+w, w
			for hi < n && buf[hi+col] < id {
				lo, step = hi, 2*step
				hi = min(lo+step, n)
			}
			for lo+w < hi {
				mid := lo + (hi-lo)/(2*w)*w
				if buf[mid+col] < id {
					lo = mid
				} else {
					hi = mid
				}
			}
			if r.i = hi; hi < n {
				return nil
			}
		}
		if r.eof {
			return nil
		}
		if r.seeker != nil {
			if _, err := r.seeker.SeekGE(id); err != nil {
				return err
			}
		}
		if err := r.pull(); err != nil {
			return err
		}
	}
}
