package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The write-ahead log makes document ingestion crash-safe. Every mutation is
// one redo-only transaction appended to a dedicated page file before any
// store page is touched. A transaction is a run of byte-framed records
// ([type][uvarint body length][body]):
//
//	txn         = Begin StageDigest? PageImage* Commit
//	Begin       = txid, op, document count, per document: ID, image
//	StageDigest = txid, SHA-256 of the pages the commit staged
//	PageImage   = txid, page id, the page's 8192 bytes
//	Commit      = txid
//
// (txids, counts, ids and lengths are uvarints; ID and image are
// length-prefixed byte strings; a delete's image is empty.) The log is
// logical redo: Begin carries each document once, as the image the engine
// serialised it to (xmltree's SJDOC2), and recovery rebuilds the store from
// the documents. What a transaction says about the store's pages is the
// StageDigest — 32 bytes that let a replay prove it laid the document out
// exactly as the commit that logged it did (see SegmentStage.Digest).
// PageImage records are the older form of that proof, the staged pages in
// full: AppendLogical never writes one, the scan still reads them, and a
// replay of a transaction that carries them compares its pages with them
// byte for byte (SegmentStage.VerifyStage). One format is written; both are
// read.
//
// The records are packed into sealed pages — the same CRC32-C page checksums
// the store uses, so a torn tail is detected exactly like a torn store page.
// Each transaction starts on a fresh page and its Commit record is its final
// bytes; a page holding committed bytes is never rewritten, so no later
// failure can damage an already-committed transaction.
//
// Crash safety argument: Append seals and writes the transaction's pages,
// then fsyncs (when the file supports it) before returning. Only after
// Append returns does the caller touch the store. A crash before the fsync
// completes leaves a tail that is missing pages, torn (checksum), or stale
// (epoch) — the scan discards the incomplete transaction and the store
// rebuild sees the pre-commit state. A crash after Append returns replays
// the transaction from the log and the rebuild sees the post-commit state.
// There is no third outcome.
//
// Epochs order log generations within the file. Every page carries the
// epoch current at its write; a scan accepts pages only while epochs are
// non-decreasing. A failed or crashed Append can leave valid-checksummed
// pages beyond the logical tail; bumping the epoch (on append failure, and
// to max-seen+1 on every open) makes the next transaction's first page
// terminate the scan before any such stale page is reached.
//
// The scan tells a tail from a fault. The log ends — quietly, as the tail an
// unfinished append leaves — at the first page that is missing, fails its
// checksum or steps back an epoch, and at a transaction whose records run
// past the pages there are or stop short of a Commit. A page that cannot be
// read is not a tail: the read error fails the open (still marked transient
// if it was, so a caller's retry policy applies) instead of passing for the
// end of history and letting the next append overwrite what lies behind it.
// Nor is a verified page whose bytes are not this grammar — an unknown
// record type, a record out of order or of impossible size: that is
// ErrWALFormat, a log from a later version or a bug, never something to
// truncate.

// WALOp is the logical operation a WAL transaction carries.
type WALOp uint8

const (
	// WALInsert adds one document.
	WALInsert WALOp = 1
	// WALDelete removes one document (its WALDoc has a nil image).
	WALDelete WALOp = 2
	// WALReplace swaps one document's content.
	WALReplace WALOp = 3
	// WALSnapshot records the full live member set — the base state at log
	// creation, and the compacted state after a store compaction. Recovery
	// rebuilds from the last committed snapshot and replays only the
	// transactions after it, so a snapshot transaction carries no stage
	// digest: the rebuild re-derives the store deterministically.
	WALSnapshot WALOp = 4
)

func (op WALOp) String() string {
	switch op {
	case WALInsert:
		return "insert"
	case WALDelete:
		return "delete"
	case WALReplace:
		return "replace"
	case WALSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("WALOp(%d)", uint8(op))
}

// WALDoc names one document in a transaction, with its serialized image
// (xmltree.AppendImage bytes; nil for a delete).
type WALDoc struct {
	ID    string
	Image []byte
}

// StageDigest is the SHA-256 a transaction logs over the store pages its
// commit staged (SegmentStage.Digest).
type StageDigest [sha256.Size]byte

// WALPageImage is the after-image of one store page: what a stage holds
// before it is applied, and what logs written before stage digests carry in
// full.
type WALPageImage struct {
	Page PageID
	Data Page
}

// WALTxn is one committed transaction as a scan returns it. Its byte slices
// are its own: nothing in it aliases the scan's buffers.
type WALTxn struct {
	ID   uint64
	Op   WALOp
	Docs []WALDoc
	// Digest is the logged stage digest, nil when the transaction has none
	// (deletes, snapshots, and transactions that carry Images instead).
	Digest *StageDigest
	Images []WALPageImage
}

// WAL record and page framing constants.
const (
	walRecBegin       = 1
	walRecPageImage   = 2
	walRecCommit      = 3
	walRecStageDigest = 4

	// Page payload layout: [epoch uint32][used uint16][record bytes].
	walPageHdr = 6
	walPageCap = PayloadSize - walPageHdr
)

// ErrWALBroken marks a WAL whose append path failed in a way that leaves
// durability ambiguous (an fsync error after pages were written). The log
// refuses further appends; reopening re-establishes the committed state.
var ErrWALBroken = errors.New("storage: wal broken, reopen to recover")

// ErrWALFormat marks a log whose verified pages — checksums and epochs in
// order — hold bytes that are not the record grammar: written by a later
// version, or by a bug. The open fails; nothing is discarded.
var ErrWALFormat = errors.New("storage: wal: unreadable record in a verified page")

type syncer interface{ Sync() error }

// WAL is a redo-only write-ahead log over a dedicated page file. Methods
// must be serialized by the caller (the ingestion layer's writer mutex).
type WAL struct {
	file   PageFile
	tail   PageID // next fresh page
	epoch  uint32
	nextTx uint64
	broken bool
	// frame holds one transaction's record stream between Appends: it is
	// sized before it is filled, so a transaction's bytes are written once.
	frame []byte
}

// OpenWAL opens (or creates, when the file is empty) a write-ahead log and
// returns the committed transactions in commit order: ScanWAL, with every
// transaction kept.
func OpenWAL(file PageFile) (*WAL, []WALTxn, error) {
	var txns []WALTxn
	w, err := ScanWAL(file, func(tx WALTxn) error {
		txns = append(txns, tx)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return w, txns, nil
}

// ScanWAL opens (or creates, when the file is empty) a write-ahead log,
// handing fn each committed transaction in commit order as the scan reaches
// it. Pages pass through one buffer and a transaction is fn's to keep or
// drop, so a caller that wants only the log's suffix from some point on
// holds only that much. An error from fn stops the scan and is returned.
//
// An incomplete trailing transaction — missing pages, torn pages caught by
// checksum, stale pages from an earlier epoch — is discarded: the scan stops
// at the first page that fails verification and at the first transaction
// with no Commit record, which by the append protocol can only be the
// unfinished tail. A page that cannot be read, and a verified page that
// cannot be parsed (ErrWALFormat), fail the open instead.
func ScanWAL(file PageFile, fn func(WALTxn) error) (*WAL, error) {
	s := &walScanner{file: file, pages: file.NumPages()}
	w := &WAL{file: file}
	maxTx := uint64(0)
	for {
		w.tail = s.next
		txn, err := s.txn()
		if err == errWALTail {
			break
		}
		if err != nil {
			return nil, err
		}
		maxTx = max(maxTx, txn.ID)
		if err := fn(txn); err != nil {
			return nil, err
		}
	}
	// Verified pages behind the tail (an append that ran out of pages) still
	// count towards the epoch the next append must exceed.
	for {
		if err := s.load(); err == errWALTail {
			break
		} else if err != nil {
			return nil, err
		}
	}
	w.epoch = s.maxEpoch + 1
	w.nextTx = maxTx + 1
	return w, nil
}

// Tail returns the page index where the next transaction will start.
func (w *WAL) Tail() PageID { return w.tail }

// AppendLogical durably logs one transaction and returns its id: the
// documents, and the digest of the store pages the commit staged for them
// (nil when it staged none: a delete, a snapshot). The transaction is
// serialized onto fresh pages (each sealed with the page checksum) and the
// file is fsynced when it supports Sync; only then does AppendLogical
// return. On a write failure nothing is committed: the in-memory tail stays
// put and the epoch is bumped so the stale partial pages can never be
// mistaken for log content. On an fsync failure durability is ambiguous and
// the WAL refuses further appends (ErrWALBroken) — the caller must reopen.
func (w *WAL) AppendLogical(op WALOp, docs []WALDoc, digest *StageDigest) (uint64, error) {
	return w.append(op, docs, digest, nil)
}

// Append is AppendLogical for a transaction that carries its staged pages
// in full instead of their digest — the record form of logs written before
// stage digests, which the scan keeps reading.
func (w *WAL) Append(op WALOp, docs []WALDoc, images []WALPageImage) (uint64, error) {
	return w.append(op, docs, nil, images)
}

func (w *WAL) append(op WALOp, docs []WALDoc, digest *StageDigest, images []WALPageImage) (uint64, error) {
	if w.broken {
		return 0, ErrWALBroken
	}
	txid := w.nextTx

	// Record bodies are laid down in place, behind lengths worked out
	// beforehand: no body is built apart and copied in.
	begin := uvarintLen(txid) + 1 + uvarintLen(uint64(len(docs)))
	for _, d := range docs {
		begin += uvarintLen(uint64(len(d.ID))) + len(d.ID) + uvarintLen(uint64(len(d.Image))) + len(d.Image)
	}
	total := 1 + uvarintLen(uint64(begin)) + begin + 2 + uvarintLen(txid)
	digestBody := uvarintLen(txid) + len(digest)
	if digest != nil {
		total += 2 + digestBody
	}
	imageBody := func(im *WALPageImage) int {
		return uvarintLen(txid) + uvarintLen(uint64(im.Page)) + PageSize
	}
	for i := range images {
		body := imageBody(&images[i])
		total += 1 + uvarintLen(uint64(body)) + body
	}
	buf := slices.Grow(w.frame[:0], total)

	buf = append(buf, walRecBegin)
	buf = binary.AppendUvarint(buf, uint64(begin))
	buf = binary.AppendUvarint(buf, txid)
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, uint64(len(docs)))
	for _, d := range docs {
		buf = binary.AppendUvarint(buf, uint64(len(d.ID)))
		buf = append(buf, d.ID...)
		buf = binary.AppendUvarint(buf, uint64(len(d.Image)))
		buf = append(buf, d.Image...)
	}
	if digest != nil {
		buf = append(buf, walRecStageDigest, byte(digestBody))
		buf = binary.AppendUvarint(buf, txid)
		buf = append(buf, digest[:]...)
	}
	for i := range images {
		im := &images[i]
		buf = append(buf, walRecPageImage)
		buf = binary.AppendUvarint(buf, uint64(imageBody(im)))
		buf = binary.AppendUvarint(buf, txid)
		buf = binary.AppendUvarint(buf, uint64(im.Page))
		buf = append(buf, im.Data[:]...)
	}
	buf = append(buf, walRecCommit)
	buf = binary.AppendUvarint(buf, uint64(uvarintLen(txid)))
	buf = binary.AppendUvarint(buf, txid)
	w.frame = buf

	// Split across fresh pages: committed bytes are never rewritten.
	page := w.tail
	var p Page // handed to the file by pointer, so it lives on the heap: one for all pages
	for off := 0; off < len(buf); {
		n := len(buf) - off
		if n > walPageCap {
			n = walPageCap
		}
		p = Page{}
		binary.LittleEndian.PutUint32(p[PageHeaderSize:], w.epoch)
		binary.LittleEndian.PutUint16(p[PageHeaderSize+4:], uint16(n))
		copy(p[PageHeaderSize+walPageHdr:], buf[off:off+n])
		SealPage(page, &p)
		if err := w.file.WritePage(page, &p); err != nil {
			w.epoch++ // invalidate the partial tail
			return 0, fmt.Errorf("storage: wal append tx %d: %w", txid, err)
		}
		off += n
		page++
	}
	if s, ok := w.file.(syncer); ok {
		if err := s.Sync(); err != nil {
			// The pages may or may not have reached the disk: ambiguous.
			w.broken = true
			return 0, fmt.Errorf("storage: wal fsync tx %d: %w (%v)", txid, err, ErrWALBroken)
		}
	}
	w.tail = page
	w.nextTx = txid + 1
	return txid, nil
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// errWALTail ends a scan quietly: the log stops here, as after an append
// that never finished.
var errWALTail = errors.New("storage: wal: end of log")

func walFormatErr(page PageID, format string, args ...any) error {
	return fmt.Errorf("%w: page %d: %s", ErrWALFormat, page, fmt.Sprintf(format, args...))
}

// walScanner reads a log's record stream front to back. Every page passes
// through the one buffer; what a transaction keeps is copied out of it.
type walScanner struct {
	file  PageFile
	pages int    // pages the scan may read; cut to next once the log has ended
	next  PageID // the page load reads next
	page  Page
	rest  []byte // the loaded page's unread record bytes
	// lastEpoch is the loaded page's epoch, maxEpoch the largest seen.
	lastEpoch, maxEpoch uint32
}

// load makes the next page the loaded one. The log ends (errWALTail, from
// then on) at the first page that is missing, fails verification or carries
// an older epoch than the page before it; a read failure is returned as what
// it is.
func (s *walScanner) load() error {
	if int(s.next) >= s.pages {
		return errWALTail
	}
	if err := s.file.ReadPage(s.next, &s.page); err != nil {
		return fmt.Errorf("storage: wal: reading page %d of %d: %w", s.next, s.pages, err)
	}
	epoch := binary.LittleEndian.Uint32(s.page[PageHeaderSize:])
	if VerifyPage(s.next, &s.page) != nil || epoch < s.lastEpoch {
		s.pages = int(s.next)
		return errWALTail
	}
	used := int(binary.LittleEndian.Uint16(s.page[PageHeaderSize+4:]))
	if used > walPageCap {
		return walFormatErr(s.next, "%d record bytes in a page that holds %d", used, walPageCap)
	}
	s.lastEpoch = epoch
	s.maxEpoch = max(s.maxEpoch, epoch)
	s.rest = s.page[PageHeaderSize+walPageHdr:][:used]
	s.next++
	return nil
}

// read fills dst from the record stream, crossing pages as needed.
func (s *walScanner) read(dst []byte) error {
	for len(dst) > 0 {
		if len(s.rest) == 0 {
			if err := s.load(); err != nil {
				return err
			}
		}
		n := copy(dst, s.rest)
		dst, s.rest = dst[n:], s.rest[n:]
	}
	return nil
}

// uvarint reads one uvarint and reports how many bytes it took.
func (s *walScanner) uvarint() (v uint64, n int, err error) {
	var b [1]byte
	for shift := uint(0); ; shift += 7 {
		if err := s.read(b[:]); err != nil {
			return 0, 0, err
		}
		n++
		if n == binary.MaxVarintLen64 && b[0] > 1 {
			return 0, 0, walFormatErr(s.next-1, "integer overflows 64 bits")
		}
		v |= uint64(b[0]&0x7F) << shift
		if b[0] < 0x80 {
			return v, n, nil
		}
	}
}

// txn parses the transaction that starts on the next page. errWALTail means
// no transaction there ever committed; any other error fails the scan.
func (s *walScanner) txn() (WALTxn, error) {
	s.rest = nil // a transaction starts on a fresh page
	first := s.next
	var txn WALTxn
	var small [binary.MaxVarintLen64 + sha256.Size]byte // a Commit's or StageDigest's body
	for seenBegin := false; ; {
		var typ [1]byte
		if err := s.read(typ[:]); err != nil {
			return txn, err
		}
		at := s.next - 1
		bodyLen, _, err := s.uvarint()
		if err != nil {
			return txn, err
		}
		if bodyLen > uint64(s.pages-int(first))*walPageCap {
			// More than the file has pages for: the append never finished.
			return txn, errWALTail
		}
		if isBegin := typ[0] == walRecBegin; isBegin == seenBegin {
			return txn, walFormatErr(at, "record type %d out of order (begin seen: %v)", typ[0], seenBegin)
		}
		var txid uint64
		switch typ[0] {
		case walRecBegin:
			seenBegin = true
			body := make([]byte, bodyLen)
			if err := s.read(body); err != nil {
				return txn, err
			}
			if err := decodeWALBegin(body, &txn); err != nil {
				return txn, walFormatErr(at, "begin record: %v", err)
			}
			continue
		case walRecPageImage:
			id, n1, err := s.uvarint()
			if err != nil {
				return txn, err
			}
			pg, n2, err := s.uvarint()
			if err != nil {
				return txn, err
			}
			if bodyLen != uint64(n1+n2+PageSize) || pg > uint64(^PageID(0)) {
				return txn, walFormatErr(at, "page image record of %d bytes for page %d", bodyLen, pg)
			}
			// Straight into its slot: the page is copied once.
			txn.Images = append(txn.Images, WALPageImage{Page: PageID(pg)})
			if err := s.read(txn.Images[len(txn.Images)-1].Data[:]); err != nil {
				return txn, err
			}
			txid = id
		case walRecStageDigest, walRecCommit:
			if bodyLen > uint64(len(small)) {
				return txn, walFormatErr(at, "record type %d of %d bytes", typ[0], bodyLen)
			}
			body := small[:bodyLen]
			if err := s.read(body); err != nil {
				return txn, err
			}
			id, n := binary.Uvarint(body)
			switch {
			case n <= 0:
				return txn, walFormatErr(at, "record type %d has no transaction id", typ[0])
			case typ[0] == walRecStageDigest && (len(body)-n != sha256.Size || txn.Digest != nil):
				return txn, walFormatErr(at, "stage digest record of %d bytes (digest already seen: %v)", bodyLen, txn.Digest != nil)
			case typ[0] == walRecCommit && n != len(body):
				return txn, walFormatErr(at, "commit record of %d bytes", bodyLen)
			}
			if typ[0] == walRecStageDigest {
				dg := StageDigest(body[n:])
				txn.Digest = &dg
			}
			txid = id
		default:
			return txn, walFormatErr(at, "unknown record type %d", typ[0])
		}
		if txid != txn.ID {
			return txn, walFormatErr(at, "record type %d for transaction %d inside transaction %d", typ[0], txid, txn.ID)
		}
		if typ[0] == walRecCommit {
			// Commit is the transaction's final record: the next
			// transaction starts on the next page.
			return txn, nil
		}
	}
}

// decodeWALBegin fills txn from a Begin record's body. The document images
// alias body, which the transaction owns.
func decodeWALBegin(body []byte, txn *WALTxn) error {
	off := 0
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body[off:])
		off += max(n, 0)
		return v, n > 0
	}
	str := func() ([]byte, bool) {
		n, ok := uvarint()
		if !ok || n > uint64(len(body)-off) {
			return nil, false
		}
		off += int(n)
		return body[off-int(n) : off : off], true
	}
	txid, ok := uvarint()
	if !ok || off >= len(body) {
		return errors.New("truncated header")
	}
	txn.ID, txn.Op = txid, WALOp(body[off])
	off++
	ndocs, ok := uvarint()
	if !ok || ndocs > uint64(len(body)-off)/2 { // a document is two length bytes at least
		return errors.New("implausible document count")
	}
	txn.Docs = make([]WALDoc, ndocs)
	for i := range txn.Docs {
		id, ok := str()
		if !ok {
			return fmt.Errorf("document %d: truncated ID", i)
		}
		image, ok := str()
		if !ok {
			return fmt.Errorf("document %d: truncated image", i)
		}
		txn.Docs[i].ID = string(id)
		if len(image) > 0 {
			txn.Docs[i].Image = image
		}
	}
	if off != len(body) {
		return fmt.Errorf("%d trailing bytes", len(body)-off)
	}
	return nil
}
