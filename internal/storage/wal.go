package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The write-ahead log makes document ingestion crash-safe. Every mutation is
// one redo-only transaction appended to a dedicated page file before any
// store page is touched:
//
//	Begin{txid, op, docs} · PageImage{txid, page, bytes}* · Commit{txid}
//
// The records are byte-framed ([type][uvarint length][body]) and packed into
// sealed pages — the same CRC32-C page checksums the store uses, so a torn
// tail is detected exactly like a torn store page. Each transaction starts
// on a fresh page and its Commit record is its final bytes; a page holding
// committed bytes is never rewritten, so no later failure can damage an
// already-committed transaction.
//
// Crash safety argument: Append seals and writes the transaction's pages,
// then fsyncs (when the file supports it) before returning. Only after
// Append returns does the caller touch the store. A crash before the fsync
// completes leaves a tail that is missing pages, torn (checksum), or stale
// (epoch) — OpenWAL discards the incomplete transaction and the store
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
	// transactions after it, so a snapshot transaction carries no page
	// images: the rebuild re-derives the store deterministically.
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
// (xmltree.WriteImage bytes; nil for a delete).
type WALDoc struct {
	ID    string
	Image []byte
}

// WALPageImage is the after-image of one store page — the physical redo a
// recovery pass re-applies.
type WALPageImage struct {
	Page PageID
	Data Page
}

// WALTxn is one committed transaction as OpenWAL returns it.
type WALTxn struct {
	ID     uint64
	Op     WALOp
	Docs   []WALDoc
	Images []WALPageImage
}

// WAL record and page framing constants.
const (
	walRecBegin     = 1
	walRecPageImage = 2
	walRecCommit    = 3

	// Page payload layout: [epoch uint32][used uint16][record bytes].
	walPageHdr = 6
	walPageCap = PayloadSize - walPageHdr
)

// ErrWALBroken marks a WAL whose append path failed in a way that leaves
// durability ambiguous (an fsync error after pages were written). The log
// refuses further appends; reopening re-establishes the committed state.
var ErrWALBroken = errors.New("storage: wal broken, reopen to recover")

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
// returns the committed transactions in commit order. Incomplete trailing
// transactions — missing pages, torn pages caught by checksum, stale pages
// from an earlier epoch — are discarded: the scan stops at the first page
// that fails verification and at the first transaction with no Commit
// record, which by the append protocol can only be the unfinished tail.
func OpenWAL(file PageFile) (*WAL, []WALTxn, error) {
	w := &WAL{file: file, epoch: 1, nextTx: 1}

	// Accept the longest prefix of checksum-valid, epoch-non-decreasing
	// pages.
	var pages []*Page
	lastEpoch := uint32(0)
	maxEpoch := uint32(0)
	n := file.NumPages()
	for id := 0; id < n; id++ {
		var p Page
		if err := file.ReadPage(PageID(id), &p); err != nil {
			break
		}
		if err := VerifyPage(PageID(id), &p); err != nil {
			break
		}
		epoch := binary.LittleEndian.Uint32(p[PageHeaderSize:])
		if epoch < lastEpoch {
			break
		}
		lastEpoch = epoch
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
		cp := p
		pages = append(pages, &cp)
	}

	var txns []WALTxn
	maxTx := uint64(0)
	next := PageID(0) // first page of the next transaction
	for int(next) < len(pages) {
		txn, end, err := parseWALTxn(pages, int(next))
		if err != nil {
			break // unfinished tail transaction: discard
		}
		txns = append(txns, txn)
		if txn.ID > maxTx {
			maxTx = txn.ID
		}
		next = PageID(end)
	}

	w.tail = next
	w.epoch = maxEpoch + 1
	w.nextTx = maxTx + 1
	return w, txns, nil
}

// Tail returns the page index where the next transaction will start.
func (w *WAL) Tail() PageID { return w.tail }

// Append durably logs one transaction and returns its id. The transaction
// is serialized onto fresh pages (each sealed with the page checksum) and
// the file is fsynced when it supports Sync; only then does Append return.
// On a write failure nothing is committed: the in-memory tail stays put and
// the epoch is bumped so the stale partial pages can never be mistaken for
// log content. On an fsync failure durability is ambiguous and the WAL
// refuses further appends (ErrWALBroken) — the caller must reopen.
func (w *WAL) Append(op WALOp, docs []WALDoc, images []WALPageImage) (uint64, error) {
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

// walStream reads the record byte stream of one transaction across its
// page run.
type walStream struct {
	pages []*Page
	pi    int // current page index
	off   int // offset into the current page's used bytes
}

func (s *walStream) used() int {
	p := s.pages[s.pi]
	return int(binary.LittleEndian.Uint16(p[PageHeaderSize+4:]))
}

var errWALTruncated = errors.New("storage: wal: truncated record stream")

func (s *walStream) ReadByte() (byte, error) {
	for {
		if s.pi >= len(s.pages) {
			return 0, errWALTruncated
		}
		if s.off < s.used() {
			b := s.pages[s.pi][PageHeaderSize+walPageHdr+s.off]
			s.off++
			return b, nil
		}
		s.pi++
		s.off = 0
	}
}

func (s *walStream) read(n int) ([]byte, error) {
	out := make([]byte, 0, n)
	for len(out) < n {
		if s.pi >= len(s.pages) {
			return nil, errWALTruncated
		}
		u := s.used()
		if s.off >= u {
			s.pi++
			s.off = 0
			continue
		}
		take := n - len(out)
		if avail := u - s.off; take > avail {
			take = avail
		}
		p := s.pages[s.pi]
		out = append(out, p[PageHeaderSize+walPageHdr+s.off:PageHeaderSize+walPageHdr+s.off+take]...)
		s.off += take
	}
	return out, nil
}

func (s *walStream) uvarint() (uint64, error) {
	return binary.ReadUvarint(s)
}

// parseWALTxn parses one transaction starting at page index first. It
// returns the transaction and the page index just past its last record. Any
// malformation — truncation, a foreign record type, a txid mismatch, or
// pages ending before the Commit record — yields an error: the transaction
// never committed.
func parseWALTxn(pages []*Page, first int) (WALTxn, int, error) {
	s := &walStream{pages: pages, pi: first}
	var txn WALTxn
	seenBegin := false
	for {
		typ, err := s.ReadByte()
		if err != nil {
			return txn, 0, err
		}
		bodyLen, err := s.uvarint()
		if err != nil {
			return txn, 0, err
		}
		if bodyLen > uint64(len(pages)-first)*uint64(walPageCap) {
			return txn, 0, errWALTruncated
		}
		body, err := s.read(int(bodyLen))
		if err != nil {
			return txn, 0, err
		}
		switch typ {
		case walRecBegin:
			if seenBegin {
				return txn, 0, fmt.Errorf("storage: wal: duplicate begin")
			}
			seenBegin = true
			if err := decodeWALBegin(body, &txn); err != nil {
				return txn, 0, err
			}
		case walRecPageImage:
			if !seenBegin {
				return txn, 0, fmt.Errorf("storage: wal: page image before begin")
			}
			im, txid, err := decodeWALPageImage(body)
			if err != nil {
				return txn, 0, err
			}
			if txid != txn.ID {
				return txn, 0, fmt.Errorf("storage: wal: page image for tx %d inside tx %d", txid, txn.ID)
			}
			txn.Images = append(txn.Images, im)
		case walRecCommit:
			if !seenBegin {
				return txn, 0, fmt.Errorf("storage: wal: commit before begin")
			}
			txid, n := binary.Uvarint(body)
			if n <= 0 || txid != txn.ID {
				return txn, 0, fmt.Errorf("storage: wal: bad commit for tx %d", txn.ID)
			}
			// Commit is the transaction's final record: the next
			// transaction starts on the next page.
			end := s.pi
			if s.off > 0 {
				end++
			}
			return txn, end, nil
		default:
			return txn, 0, fmt.Errorf("storage: wal: unknown record type %d", typ)
		}
	}
}

type byteStream struct {
	b   []byte
	off int
}

func (s *byteStream) ReadByte() (byte, error) {
	if s.off >= len(s.b) {
		return 0, errWALTruncated
	}
	b := s.b[s.off]
	s.off++
	return b, nil
}

func (s *byteStream) uvarint() (uint64, error) { return binary.ReadUvarint(s) }

func (s *byteStream) read(n int) ([]byte, error) {
	if n < 0 || s.off+n > len(s.b) {
		return nil, errWALTruncated
	}
	out := s.b[s.off : s.off+n]
	s.off += n
	return out, nil
}

func decodeWALBegin(body []byte, txn *WALTxn) error {
	s := &byteStream{b: body}
	txid, err := s.uvarint()
	if err != nil {
		return err
	}
	opb, err := s.ReadByte()
	if err != nil {
		return err
	}
	ndocs, err := s.uvarint()
	if err != nil {
		return err
	}
	if ndocs > uint64(len(body)) {
		return errWALTruncated
	}
	txn.ID = txid
	txn.Op = WALOp(opb)
	txn.Docs = make([]WALDoc, 0, ndocs)
	for i := uint64(0); i < ndocs; i++ {
		idLen, err := s.uvarint()
		if err != nil {
			return err
		}
		id, err := s.read(int(idLen))
		if err != nil {
			return err
		}
		imLen, err := s.uvarint()
		if err != nil {
			return err
		}
		im, err := s.read(int(imLen))
		if err != nil {
			return err
		}
		var image []byte
		if imLen > 0 {
			image = append([]byte(nil), im...)
		}
		txn.Docs = append(txn.Docs, WALDoc{ID: string(id), Image: image})
	}
	if s.off != len(body) {
		return fmt.Errorf("storage: wal: begin record has %d trailing bytes", len(body)-s.off)
	}
	return nil
}

func decodeWALPageImage(body []byte) (WALPageImage, uint64, error) {
	s := &byteStream{b: body}
	txid, err := s.uvarint()
	if err != nil {
		return WALPageImage{}, 0, err
	}
	pg, err := s.uvarint()
	if err != nil {
		return WALPageImage{}, 0, err
	}
	data, err := s.read(PageSize)
	if err != nil {
		return WALPageImage{}, 0, err
	}
	if s.off != len(body) {
		return WALPageImage{}, 0, fmt.Errorf("storage: wal: page image has trailing bytes")
	}
	im := WALPageImage{Page: PageID(pg)}
	copy(im.Data[:], data)
	return im, txid, nil
}
