package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"sjos/internal/xmltree"
)

// Compressed postings: every postings list in the store — one per element
// tag and one per indexed (tag, value) group — is stored as a sequence of
// delta+varint encoded blocks of at most postingsBlockLen NodeIDs. Blocks
// never cross a page boundary, so one block decode pins exactly one page,
// and the per-run block directory (kept in memory, like the tag directory
// itself) carries each block's first NodeID. NodeIDs are assigned in
// document order, so that directory makes SeekGE a binary search over
// in-memory block headers plus at most one search of a decoded block, and
// NextBlock a straight block-by-block decode — the skip-ahead and batch
// contracts of the uncompressed format, at a fraction of the on-disk size.
//
// Block wire format (within a page payload):
//
//	uvarint count            — postings in this block (1..postingsBlockLen)
//	uvarint firstID          — the block's first NodeID
//	uvarint delta × (count-1) — id[k] - id[k-1]; strictly positive
const postingsBlockLen = 128

// maxBlockBytes bounds one encoded block (count and first up to 5 bytes,
// every delta up to 5 bytes).
const maxBlockBytes = 2*binary.MaxVarintLen32 + (postingsBlockLen-1)*binary.MaxVarintLen32

// blockRef locates one encoded block and summarises its content. The
// directory entry is what makes block-wise skip-ahead cheap: firstID is
// consulted without touching the page.
type blockRef struct {
	page     PageID
	off      uint16 // byte offset within the page payload
	n        uint16 // postings in the block
	startIdx int32  // index of the block's first posting within its run
	firstID  xmltree.NodeID
}

// postingsRun is one postings list: its length and the in-memory directory
// of its encoded blocks.
type postingsRun struct {
	count  int
	blocks []blockRef
}

// encodeBlock writes ids (strictly increasing, non-empty) into dst and
// returns the encoded length.
func encodeBlock(dst []byte, ids []xmltree.NodeID) int {
	n := binary.PutUvarint(dst, uint64(len(ids)))
	n += binary.PutUvarint(dst[n:], uint64(ids[0]))
	for k := 1; k < len(ids); k++ {
		n += binary.PutUvarint(dst[n:], uint64(ids[k]-ids[k-1]))
	}
	return n
}

// decodeBlock reads a block from a page payload into dst, validating the
// count against the directory and the strict-increase invariant (a corrupt
// but checksum-passing page must not produce garbage postings silently): a
// first ID or a delta that does not fit a NodeID, or carries the ID past the
// largest one, is refused like a zero delta. Nearly every delta is one byte,
// which is added as it stands; binary.Uvarint reads only the longer ones.
func decodeBlock(payload []byte, ref blockRef, dst []xmltree.NodeID) error {
	if int(ref.off) > len(payload) || ref.n == 0 || int(ref.n) > len(dst) {
		return fmt.Errorf("storage: postings block on page %d: %d postings at offset %d of a %d-byte payload", ref.page, ref.n, ref.off, len(payload))
	}
	b := payload[ref.off:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count != uint64(ref.n) {
		return fmt.Errorf("storage: postings block on page %d: count %d, directory says %d", ref.page, count, ref.n)
	}
	b = b[n:]
	first, n := binary.Uvarint(b)
	if n <= 0 || first > math.MaxUint32 {
		return fmt.Errorf("storage: postings block on page %d: bad first id", ref.page)
	}
	b, dst = b[n:], dst[:ref.n]
	id := xmltree.NodeID(first)
	dst[0] = id
	i := 0
	for k := 1; k < len(dst); k++ {
		next := id
		if i < len(b) && b[i] < 0x80 {
			next += xmltree.NodeID(b[i])
			i++
		} else if d, n := binary.Uvarint(b[i:]); n > 0 && d <= uint64(^id) {
			next += xmltree.NodeID(d)
			i += n
		}
		if next <= id { // zero, wrapped, truncated, overlong or past the last NodeID
			return fmt.Errorf("storage: postings block on page %d: bad delta at %d", ref.page, k)
		}
		id = next
		dst[k] = id
	}
	return nil
}

// postingsWriter appends encoded blocks to consecutive pages of a page
// file, sealing each page (checksum header) as it fills. It serves both the
// tag-postings segment and the value-index segment of a store build.
type postingsWriter struct {
	file    PageFile
	page    Page
	cur     PageID
	off     int // next free byte within the current page's payload
	dirty   bool
	bytes   int // total encoded bytes, for compression accounting
	scratch [maxBlockBytes]byte
	// refs is the chunk the runs' block directories are cut from: a value
	// index writes thousands of one-block runs, and a slice apiece would
	// be most of a build's allocations.
	refs []blockRef
}

func newPostingsWriter(file PageFile, first PageID) *postingsWriter {
	return &postingsWriter{file: file, cur: first}
}

// writeRun encodes ids as blocks, appending to the current page and
// advancing to fresh pages as needed.
func (w *postingsWriter) writeRun(ids []xmltree.NodeID) (postingsRun, error) {
	nblocks := (len(ids) + postingsBlockLen - 1) / postingsBlockLen
	if nblocks > cap(w.refs)-len(w.refs) {
		w.refs = make([]blockRef, 0, max(nblocks, 512))
	}
	run := postingsRun{count: len(ids), blocks: w.refs[len(w.refs) : len(w.refs) : len(w.refs)+nblocks]}
	w.refs = w.refs[:len(w.refs)+nblocks]
	for i := 0; i < len(ids); i += postingsBlockLen {
		blk := ids[i:]
		if len(blk) > postingsBlockLen {
			blk = blk[:postingsBlockLen]
		}
		enc := encodeBlock(w.scratch[:], blk)
		if w.off+enc > PayloadSize {
			if err := w.flushPage(); err != nil {
				return postingsRun{}, err
			}
		}
		copy(w.page[PageHeaderSize+w.off:], w.scratch[:enc])
		run.blocks = append(run.blocks, blockRef{
			page:     w.cur,
			off:      uint16(w.off),
			n:        uint16(len(blk)),
			startIdx: int32(i),
			firstID:  blk[0],
		})
		w.off += enc
		w.bytes += enc
		w.dirty = true
	}
	return run, nil
}

// flushPage seals and writes the current page and moves to the next one.
func (w *postingsWriter) flushPage() error {
	SealPage(w.cur, &w.page)
	if err := w.file.WritePage(w.cur, &w.page); err != nil {
		return fmt.Errorf("storage: write postings page %d: %w", w.cur, err)
	}
	w.page = Page{}
	w.cur++
	w.off = 0
	w.dirty = false
	return nil
}

// finish flushes the trailing partial page and returns the first unused
// page id.
func (w *postingsWriter) finish() (PageID, error) {
	if w.dirty {
		if err := w.flushPage(); err != nil {
			return 0, err
		}
	}
	return w.cur, nil
}

// runCursor iterates one postings run in document order through the buffer
// pool, decoding one block at a time; TagScanner and the value-index scanners
// are thin layers over it.
type runCursor struct {
	store *Store
	ctx   context.Context
	run   postingsRun
	i     int // postings consumed (index within the run)

	blk  int // decoded block index, -1 = none
	bufN int
	buf  [postingsBlockLen]xmltree.NodeID
}

func (sc *runCursor) init(store *Store, ctx context.Context, run postingsRun) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc.store, sc.ctx, sc.run, sc.blk = store, ctx, run, -1
}

// loadBlock decodes block b into the cursor's buffer (one page pin).
func (sc *runCursor) loadBlock(b int) error {
	if sc.blk == b {
		return nil
	}
	ref := sc.run.blocks[b]
	pg, err := sc.store.pool.GetCtx(sc.ctx, ref.page)
	if err != nil {
		return err
	}
	err = decodeBlock(pg[PageHeaderSize:], ref, sc.buf[:ref.n])
	sc.store.pool.Unpin(ref.page, false)
	if err != nil {
		return err
	}
	sc.blk, sc.bufN = b, int(ref.n)
	sc.store.shared.blocksDecoded.Add(1)
	return nil
}

// blockFor returns the index of the block containing posting i.
func (sc *runCursor) blockFor(i int) int {
	// Runs are short directories; the common case advances into the next
	// block, so check it before binary searching.
	if sc.blk >= 0 {
		if ref := sc.run.blocks[sc.blk]; i >= int(ref.startIdx) && i < int(ref.startIdx)+int(ref.n) {
			return sc.blk
		}
		if n := sc.blk + 1; n < len(sc.run.blocks) {
			if ref := sc.run.blocks[n]; i >= int(ref.startIdx) && i < int(ref.startIdx)+int(ref.n) {
				return n
			}
		}
	}
	return sort.Search(len(sc.run.blocks), func(b int) bool {
		return int(sc.run.blocks[b].startIdx) > i
	}) - 1
}

// SeekGE skips the cursor forward to the first unread posting >= id; an id
// at or before the current position is a no-op. The block directory is
// searched in memory and at most one block is decoded and searched, so a
// seek costs O(log blocks) memory work plus one page read — the index
// skip-ahead behind the executor's seeks. It returns how many postings were
// skipped.
func (sc *runCursor) SeekGE(id xmltree.NodeID) (int, error) {
	blocks := sc.run.blocks
	b := sort.Search(len(blocks), func(k int) bool { return blocks[k].firstID >= id })
	j := sc.run.count
	if b < len(blocks) {
		j = int(blocks[b].startIdx)
	}
	if b > 0 && j > sc.i {
		// The first posting >= id may sit inside the preceding block.
		if err := sc.loadBlock(b - 1); err != nil {
			return 0, err
		}
		ids := sc.buf[:sc.bufN]
		if k, _ := slices.BinarySearch(ids, id); k < len(ids) {
			j = int(blocks[b-1].startIdx) + k
		}
	}
	before := sc.i
	sc.i = max(sc.i, j)
	return sc.i - before, nil
}

// Next returns the next (NodeID, NodeRecord) of the run. ok is false when
// the postings are exhausted.
func (sc *runCursor) Next() (xmltree.NodeID, NodeRecord, bool, error) {
	if sc.i >= sc.run.count {
		return 0, NodeRecord{}, false, nil
	}
	b := sc.blockFor(sc.i)
	if err := sc.loadBlock(b); err != nil {
		return 0, NodeRecord{}, false, err
	}
	id := sc.buf[sc.i-int(sc.run.blocks[b].startIdx)]
	rec, err := sc.store.NodeCtx(sc.ctx, id)
	if err != nil {
		return 0, NodeRecord{}, false, err
	}
	sc.i++
	return id, rec, true, nil
}

// NextBlock fills ids with the run's next postings, returning how many were
// produced (0 at end of stream). Each encoded block is decoded once per
// pass (one page pin per block), and no node record is fetched at all.
func (sc *runCursor) NextBlock(ids []xmltree.NodeID) (int, error) {
	n := 0
	for n < len(ids) && sc.i < sc.run.count {
		b := sc.blockFor(sc.i)
		if err := sc.loadBlock(b); err != nil {
			return n, err
		}
		off := sc.i - int(sc.run.blocks[b].startIdx)
		avail := sc.bufN - off
		if want := len(ids) - n; avail > want {
			avail = want
		}
		copy(ids[n:n+avail], sc.buf[off:off+avail])
		n += avail
		sc.i += avail
	}
	return n, nil
}
