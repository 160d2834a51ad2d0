package exec

import (
	"sort"

	"sjos/internal/xmltree"
)

// BatchRows is the number of tuples one Batch holds: large enough to
// amortise the per-call virtual dispatch of the iterator contract over ~1K
// tuples, small enough that a batch of the widest plans stays well inside
// the L2 cache.
const BatchRows = 1024

// minRefill is the smallest first refill a reader under a demand asks for:
// a limit of one or two rows still gets a useful block.
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

// AppendPair copies a join output (left tuple then right tuple) into the
// batch without materialising the concatenation anywhere else.
func (b *Batch) AppendPair(l, r Tuple) {
	b.buf = append(append(b.buf, l...), r...)
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
// row whose join-column Start position is below pos, without producing it.
// ok is false when the operator cannot seek (then nothing was consumed);
// skipped counts the index postings bypassed. Only operators whose output
// is ordered by the sought column's Start position may implement it.
type Seeker interface {
	SeekGE(pos xmltree.Pos) (skipped int, ok bool, err error)
}

// trySeek seeks op if it supports skip-ahead.
func trySeek(op Operator, pos xmltree.Pos) (int, bool, error) {
	if s, ok := op.(Seeker); ok {
		return s.SeekGE(pos)
	}
	return 0, false, nil
}

// batchReader pulls one operator's output through a batch borrowed from the
// execution's scratch, serving rows with plain slice indexing instead of a
// virtual call per tuple. The row returned by next is valid until the reader
// refills, which happens only on the next-after-last row — so the consumer
// may hold the current row across arbitrarily many of its own emissions.
//
// Under a demand (a Limit at the root) the first refill asks for that many
// rows, at least minRefill, and each later one for twice the last, up to
// BatchRows: a first-k execution reads about what its k rows need, and one
// that needs more reaches full batches after a handful of refills.
// Without a demand every refill is a full batch.
type batchReader struct {
	op    Operator
	batch *Batch
	rows  int // the next refill's row cap
	i     int
	eof   bool
}

// init binds the reader to op, sizing its first refill by ctx's demand.
func (r *batchReader) init(ctx *Context, op Operator) {
	rows := BatchRows
	if ctx.demand > 0 {
		rows = min(max(ctx.demand, minRefill), BatchRows)
	}
	*r = batchReader{op: op, batch: ctx.scratch.batch(op.Schema().Width()), rows: rows}
}

// pull refills the batch at the current size and doubles the next one.
func (r *batchReader) pull() error {
	r.batch.SetCap(r.rows)
	r.rows = min(2*r.rows, BatchRows)
	r.i = 0
	if err := r.op.NextBatch(r.batch); err != nil {
		return err
	}
	r.eof = r.batch.Len() == 0
	return nil
}

// next returns the next row of the stream.
func (r *batchReader) next() (Tuple, bool, error) {
	if r.i < r.batch.Len() {
		t := r.batch.Row(r.i)
		r.i++
		return t, true, nil
	}
	return r.refill()
}

// refill fetches the next batch and serves its first row.
func (r *batchReader) refill() (Tuple, bool, error) {
	if r.eof {
		return nil, false, nil
	}
	if err := r.pull(); err != nil || r.eof {
		return nil, false, err
	}
	r.i = 1
	return r.batch.Row(0), true, nil
}

// skipDead passes over the current row and the run of rows after it whose
// col region ends before pos, and returns the first row that does not: the
// join's dead ancestors, dismissed with one End lookup each.
func (r *batchReader) skipDead(pos xmltree.Pos, doc *xmltree.Document, col int) (Tuple, bool, error) {
	for {
		buf, w := r.batch.buf, r.batch.width
		for ; r.i < r.batch.rows; r.i++ {
			if doc.End(buf[r.i*w+col]) >= pos {
				return r.next()
			}
		}
		if t, ok, err := r.refill(); !ok || err != nil || doc.End(t[col]) >= pos {
			return t, ok, err
		}
	}
}

// seekGE advances the reader to the first row whose col Start position is
// >= pos: buffered rows are skipped with a binary search (the stream is
// ordered by col's Start), and once the buffer is exhausted the underlying
// operator is seeked through the Seeker interface if it supports it —
// otherwise whole batches are drained, which is still one virtual call per
// batch rather than per row.
func (r *batchReader) seekGE(pos xmltree.Pos, doc *xmltree.Document, col int) (Tuple, bool, error) {
	for {
		if r.i < r.batch.Len() {
			n := r.batch.Len()
			j := r.i + sort.Search(n-r.i, func(k int) bool {
				return doc.Start(r.batch.Row(r.i + k)[col]) >= pos
			})
			if j < n {
				r.i = j + 1
				return r.batch.Row(j), true, nil
			}
			r.i = n
		}
		if r.eof {
			return nil, false, nil
		}
		if _, _, err := trySeek(r.op, pos); err != nil {
			return nil, false, err
		}
		// Refill regardless of seek support; unsupported seeks fall back to
		// discarding batch-wise in the loop above.
		if err := r.pull(); err != nil || r.eof {
			return nil, false, err
		}
	}
}
