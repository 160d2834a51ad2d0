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

// Batch is a reusable block of tuples with one flat backing array: row i is
// the width-sized slice at offset i*width. Rows handed out by Row alias the
// backing array, so they are valid only until the batch is reset or
// refilled — consumers that retain tuples must copy them. The caller owns
// the batch it passes to NextBatch; operators own the batches they use to
// read their children.
type Batch struct {
	width int
	rows  int
	buf   []xmltree.NodeID
}

// NewBatch returns an empty batch for tuples of the given width.
func NewBatch(width int) *Batch {
	return &Batch{width: width, buf: make([]xmltree.NodeID, 0, width*BatchRows)}
}

// Reset empties the batch, keeping the backing array.
func (b *Batch) Reset() { b.rows, b.buf = 0, b.buf[:0] }

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.rows }

// Full reports whether the batch is at capacity.
func (b *Batch) Full() bool { return b.rows >= BatchRows }

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
type batchReader struct {
	op    Operator
	batch *Batch
	i     int
	eof   bool
}

// init binds the reader to op.
func (r *batchReader) init(sc *scratch, op Operator) {
	*r = batchReader{op: op, batch: sc.batch(op.Schema().Width())}
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
	if err := r.op.NextBatch(r.batch); err != nil {
		return nil, false, err
	}
	r.i = 0
	if r.batch.Len() == 0 {
		r.eof = true
		return nil, false, nil
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
// BatchRows rows rather than per row.
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
		if err := r.op.NextBatch(r.batch); err != nil {
			return nil, false, err
		}
		r.i = 0
		if r.batch.Len() == 0 {
			r.eof = true
			return nil, false, nil
		}
	}
}
