package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"
)

func walImage(page PageID, fill byte) WALPageImage {
	im := WALPageImage{Page: page}
	for i := range im.Data {
		im.Data[i] = fill
	}
	return im
}

func TestWALRoundTrip(t *testing.T) {
	file := NewMemFile()
	w, txns, err := OpenWAL(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 0 {
		t.Fatalf("fresh WAL has %d txns", len(txns))
	}
	docs := []WALDoc{{ID: "a", Image: []byte("hello image")}}
	images := []WALPageImage{walImage(3, 0xAB), walImage(4, 0xCD)}
	id1, err := w.Append(WALInsert, docs, images)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := w.Append(WALDelete, []WALDoc{{ID: "a"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1+1 {
		t.Fatalf("txids %d, %d not sequential", id1, id2)
	}

	_, got, err := OpenWAL(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("reopened WAL has %d txns, want 2", len(got))
	}
	tx := got[0]
	if tx.ID != id1 || tx.Op != WALInsert || len(tx.Docs) != 1 || tx.Docs[0].ID != "a" {
		t.Fatalf("txn 0 mismatch: %+v", tx)
	}
	if !bytes.Equal(tx.Docs[0].Image, []byte("hello image")) {
		t.Fatalf("doc image mismatch")
	}
	if len(tx.Images) != 2 || tx.Images[0].Page != 3 || tx.Images[1].Page != 4 {
		t.Fatalf("page images mismatch: %+v", tx.Images)
	}
	if tx.Images[0].Data != images[0].Data || tx.Images[1].Data != images[1].Data {
		t.Fatalf("page image bytes mismatch")
	}
	if got[1].Op != WALDelete || got[1].Docs[0].Image != nil {
		t.Fatalf("txn 1 mismatch: %+v", got[1])
	}
}

func TestWALFreshPagePerTxn(t *testing.T) {
	file := NewMemFile()
	w, _, _ := OpenWAL(file)
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "x", Image: []byte{1}}}, nil); err != nil {
		t.Fatal(err)
	}
	one := file.NumPages()
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "y", Image: []byte{2}}}, nil); err != nil {
		t.Fatal(err)
	}
	if file.NumPages() != 2*one {
		t.Fatalf("second txn reused the first txn's tail page: %d pages after two txns", file.NumPages())
	}
}

// A torn or missing tail must discard exactly the unfinished transaction.
func TestWALTornTailDiscarded(t *testing.T) {
	file := NewMemFile()
	w, _, _ := OpenWAL(file)
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "keep", Image: []byte("k")}}, nil); err != nil {
		t.Fatal(err)
	}
	keepPages := file.NumPages()
	big := []WALPageImage{walImage(0, 1), walImage(1, 2), walImage(2, 3)}
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "torn", Image: []byte("t")}}, big); err != nil {
		t.Fatal(err)
	}

	// Tear the second transaction at every one of its pages in turn: zap
	// the page's checksum and verify only "keep" survives.
	for p := keepPages; p < file.NumPages(); p++ {
		damaged := NewMemFile()
		var pg Page
		for i := 0; i < file.NumPages(); i++ {
			if err := file.ReadPage(PageID(i), &pg); err != nil {
				t.Fatal(err)
			}
			if i == p {
				pg[PageHeaderSize+100] ^= 0xFF // payload damage: checksum now fails
			}
			if err := damaged.WritePage(PageID(i), &pg); err != nil {
				t.Fatal(err)
			}
		}
		_, txns, err := OpenWAL(damaged)
		if err != nil {
			t.Fatal(err)
		}
		if len(txns) != 1 || txns[0].Docs[0].ID != "keep" {
			t.Fatalf("tear at page %d: got %d txns, want only keep", p, len(txns))
		}
	}
}

// Pages dropped from the tail (a crash before they hit the disk) must also
// discard the unfinished transaction.
func TestWALMissingTailDiscarded(t *testing.T) {
	file := NewMemFile()
	w, _, _ := OpenWAL(file)
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "keep", Image: []byte("k")}}, nil); err != nil {
		t.Fatal(err)
	}
	keepPages := file.NumPages()
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "lost", Image: []byte("l")}},
		[]WALPageImage{walImage(0, 9), walImage(1, 8)}); err != nil {
		t.Fatal(err)
	}
	for cut := keepPages; cut < file.NumPages(); cut++ {
		trunc := NewMemFile()
		var pg Page
		for i := 0; i < cut; i++ {
			if err := file.ReadPage(PageID(i), &pg); err != nil {
				t.Fatal(err)
			}
			if err := trunc.WritePage(PageID(i), &pg); err != nil {
				t.Fatal(err)
			}
		}
		_, txns, err := OpenWAL(trunc)
		if err != nil {
			t.Fatal(err)
		}
		if len(txns) != 1 || txns[0].Docs[0].ID != "keep" {
			t.Fatalf("cut at page %d: got %d txns, want only keep", cut, len(txns))
		}
	}
}

// After a failed append the epoch bump must prevent the stale partial tail
// from being misread once later transactions land over it.
func TestWALEpochFencesStaleTail(t *testing.T) {
	inner := NewMemFile()
	w, _, _ := OpenWAL(inner)
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "a", Image: []byte("a")}}, nil); err != nil {
		t.Fatal(err)
	}

	// Fail an append partway: two of its pages land, the rest don't.
	failing := &failAfterN{inner: inner, allow: 2}
	w.file = failing
	big := []WALPageImage{walImage(0, 1), walImage(1, 2), walImage(2, 3), walImage(3, 4)}
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "dead", Image: []byte("d")}}, big); err == nil {
		t.Fatal("append expected to fail")
	}
	w.file = inner

	// A later small transaction overwrites only the first stale page; the
	// second stale page (older epoch) must not be parsed behind it.
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "b", Image: []byte("b")}}, nil); err != nil {
		t.Fatal(err)
	}
	_, txns, err := OpenWAL(inner)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 2 || txns[0].Docs[0].ID != "a" || txns[1].Docs[0].ID != "b" {
		ids := make([]string, len(txns))
		for i, tx := range txns {
			ids[i] = tx.Docs[0].ID
		}
		t.Fatalf("recovered %v, want [a b]", ids)
	}
}

// failAfterN passes through the first allow writes, then fails.
type failAfterN struct {
	inner PageFile
	allow int
	seen  int
}

func (f *failAfterN) WritePage(id PageID, src *Page) error {
	f.seen++
	if f.seen > f.allow {
		return errors.New("failAfterN: write refused")
	}
	return f.inner.WritePage(id, src)
}
func (f *failAfterN) ReadPage(id PageID, dst *Page) error { return f.inner.ReadPage(id, dst) }
func (f *failAfterN) NumPages() int                       { return f.inner.NumPages() }

func TestWALSnapshotMultiDoc(t *testing.T) {
	file := NewMemFile()
	w, _, _ := OpenWAL(file)
	docs := []WALDoc{
		{ID: "a", Image: []byte("imga")},
		{ID: "b", Image: []byte("imgb")},
		{ID: "c", Image: []byte("imgc")},
	}
	if _, err := w.Append(WALSnapshot, docs, nil); err != nil {
		t.Fatal(err)
	}
	_, txns, err := OpenWAL(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 1 || txns[0].Op != WALSnapshot || len(txns[0].Docs) != 3 {
		t.Fatalf("snapshot txn mismatch: %+v", txns)
	}
	for i, d := range docs {
		if txns[0].Docs[i].ID != d.ID || !bytes.Equal(txns[0].Docs[i].Image, d.Image) {
			t.Fatalf("snapshot doc %d mismatch", i)
		}
	}
}

// A logical transaction carries its documents and a stage digest, and no
// page images; both record forms read back from one log.
func TestWALLogicalRoundTrip(t *testing.T) {
	file := NewMemFile()
	w, _, _ := OpenWAL(file)
	doc := bytes.Repeat([]byte("document image "), 3000) // several pages
	digest := StageDigest(sha256.Sum256([]byte("stage")))
	if _, err := w.AppendLogical(WALInsert, []WALDoc{{ID: "a", Image: doc}}, &digest); err != nil {
		t.Fatal(err)
	}
	if want := (len(doc) + walPageCap) / walPageCap; file.NumPages() != want {
		t.Fatalf("a %d-byte document logged on %d pages, want %d", len(doc), file.NumPages(), want)
	}
	if _, err := w.AppendLogical(WALDelete, []WALDoc{{ID: "a"}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(WALInsert, []WALDoc{{ID: "b", Image: []byte("b")}}, []WALPageImage{walImage(7, 0x11)}); err != nil {
		t.Fatal(err)
	}

	var seen []WALOp
	w2, err := ScanWAL(file, func(tx WALTxn) error {
		seen = append(seen, tx.Op)
		return nil
	})
	if err != nil || len(seen) != 3 || w2.Tail() != w.Tail() {
		t.Fatalf("scan saw %v, tail %d (%v); want three transactions and tail %d", seen, w2.Tail(), err, w.Tail())
	}
	_, txns, err := OpenWAL(file)
	if err != nil || len(txns) != 3 {
		t.Fatalf("reopened WAL has %d txns (%v), want 3", len(txns), err)
	}
	if tx := txns[0]; tx.Digest == nil || *tx.Digest != digest || tx.Images != nil || !bytes.Equal(tx.Docs[0].Image, doc) {
		t.Fatalf("logical txn mismatch: digest %v, %d images, %d image bytes", tx.Digest, len(tx.Images), len(tx.Docs[0].Image))
	}
	if tx := txns[1]; tx.Digest != nil || tx.Images != nil || tx.Docs[0].Image != nil {
		t.Fatalf("delete txn mismatch: %+v", tx)
	}
	if tx := txns[2]; tx.Digest != nil || len(tx.Images) != 1 || tx.Images[0] != walImage(7, 0x11) {
		t.Fatalf("page-image txn mismatch: digest %v, %d images", tx.Digest, len(tx.Images))
	}

	// fn's error stops the scan and is the scan's error.
	stop := errors.New("stop")
	if _, err := ScanWAL(file, func(WALTxn) error { return stop }); err != stop {
		t.Fatalf("scan returned %v, want fn's error", err)
	}
}

// writeWALStream lays a raw record stream down as sealed log pages from
// page first on, chunk record bytes to a page: the way Append frames one
// when chunk is walPageCap, and across more page boundaries when it is less
// (a page need not be full).
func writeWALStream(t testing.TB, file PageFile, first PageID, epoch uint32, stream []byte, chunk int) {
	t.Helper()
	for page := first; len(stream) > 0; page++ {
		n := min(len(stream), chunk)
		var p Page
		binary.LittleEndian.PutUint32(p[PageHeaderSize:], epoch)
		binary.LittleEndian.PutUint16(p[PageHeaderSize+4:], uint16(n))
		copy(p[PageHeaderSize+walPageHdr:], stream[:n])
		SealPage(page, &p)
		if err := file.WritePage(page, &p); err != nil {
			t.Fatal(err)
		}
		stream = stream[n:]
	}
}

// Bytes that verify — checksum and epoch in order — but are not the record
// grammar are not a tail to cut: the open fails with ErrWALFormat. This is
// how a build older than a record type meets a log that uses it.
func TestWALUnknownRecordFailsOpen(t *testing.T) {
	begin := []byte{walRecBegin, 3, 2, byte(WALInsert), 0} // txid 2, no documents
	commit := []byte{walRecCommit, 1, 2}
	for name, middle := range map[string][]byte{
		"unknown record type":     {9, 1, 2},
		"second begin":            begin,
		"record of another txn":   {walRecStageDigest, 33, 7, 31: 0, 34: 0},
		"oversized commit":        {walRecCommit, 2, 2, 0},
		"page image of odd size":  {walRecPageImage, 3, 2, 0, 0},
		"digest of the wrong len": {walRecStageDigest, 2, 2, 0},
	} {
		file := NewMemFile()
		w, _, _ := OpenWAL(file)
		if _, err := w.AppendLogical(WALInsert, []WALDoc{{ID: "keep", Image: []byte("k")}}, nil); err != nil {
			t.Fatal(err)
		}
		stream := append(append(append([]byte(nil), begin...), middle...), commit...)
		writeWALStream(t, file, w.Tail(), 1, stream, walPageCap)
		if w2, txns, err := OpenWAL(file); !errors.Is(err, ErrWALFormat) || w2 != nil || txns != nil {
			t.Errorf("%s: OpenWAL returned %v, %d txns, %v; want ErrWALFormat alone", name, w2, len(txns), err)
		}

		// The same bytes on a page that fails its checksum are a torn tail.
		var p Page
		if err := file.ReadPage(w.Tail(), &p); err != nil {
			t.Fatal(err)
		}
		p[PageSize-1] ^= 0xFF
		if err := file.WritePage(w.Tail(), &p); err != nil {
			t.Fatal(err)
		}
		if _, txns, err := OpenWAL(file); err != nil || len(txns) != 1 || txns[0].Docs[0].ID != "keep" {
			t.Errorf("%s on a torn page: %d txns, %v; want only keep", name, len(txns), err)
		}
	}

	// A record before any Begin, on the log's first page.
	file := NewMemFile()
	writeWALStream(t, file, 0, 1, commit, walPageCap)
	if _, _, err := OpenWAL(file); !errors.Is(err, ErrWALFormat) {
		t.Errorf("commit before begin: %v, want ErrWALFormat", err)
	}
	// A verified page that claims more record bytes than a page holds.
	var p Page
	binary.LittleEndian.PutUint16(p[PageHeaderSize+4:], walPageCap+1)
	SealPage(0, &p)
	if err := file.WritePage(0, &p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(file); !errors.Is(err, ErrWALFormat) {
		t.Errorf("overfull page: %v, want ErrWALFormat", err)
	}
}

// A log file that ends in a fragment of a page — the disk filled up, or the
// power went, while the file was being extended — opens with its committed
// transactions, and the next append goes over the fragment.
func TestWALDiskFileFragmentTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frag.wal")
	d, err := CreateDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, _, _ := OpenWAL(d)
	for _, id := range []string{"a", "b"} {
		if _, err := w.AppendLogical(WALInsert, []WALDoc{{ID: id, Image: []byte(id)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	appendFragment(t, path)
	for round, want := range [][]string{{"a", "b"}, {"a", "b", "c"}} {
		d, err := OpenDiskFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w, txns, err := OpenWAL(d)
		if err != nil || len(txns) != len(want) {
			t.Fatalf("round %d: %d txns, %v; want %v", round, len(txns), err, want)
		}
		for i, id := range want {
			if txns[i].Docs[0].ID != id {
				t.Fatalf("round %d: txn %d is %q, want %q", round, i, txns[i].Docs[0].ID, id)
			}
		}
		if round == 0 {
			if _, err := w.AppendLogical(WALInsert, []WALDoc{{ID: "c", Image: []byte("c")}}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// walSeedLogs is one history logged in each record form — stage digests, and
// page images as logs from before them carry — as raw file bytes, with each
// transaction's record stream beside it.
func walSeedLogs(t testing.TB) (logs [][]byte, streams [][]byte) {
	for _, logical := range []bool{true, false} {
		file := NewMemFile()
		w, _, _ := OpenWAL(file)
		digest := StageDigest(sha256.Sum256([]byte("seed")))
		for _, step := range []struct {
			op  WALOp
			doc WALDoc
		}{
			{WALSnapshot, WALDoc{ID: "base", Image: []byte("SJDOC")}},
			{WALInsert, WALDoc{ID: "a", Image: bytes.Repeat([]byte("a"), 300)}},
			{WALDelete, WALDoc{ID: "base"}},
			{WALReplace, WALDoc{ID: "a", Image: []byte("aa")}},
		} {
			var err error
			switch {
			case step.doc.Image == nil || step.op == WALSnapshot:
				_, err = w.AppendLogical(step.op, []WALDoc{step.doc}, nil)
			case logical:
				_, err = w.AppendLogical(step.op, []WALDoc{step.doc}, &digest)
			default:
				_, err = w.Append(step.op, []WALDoc{step.doc}, []WALPageImage{walImage(5, 0x5A)})
			}
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, bytes.Clone(w.frame))
		}
		logs = append(logs, rawPages(t, file))
	}
	return logs, streams
}

func rawPages(t testing.TB, file PageFile) []byte {
	t.Helper()
	var raw []byte
	var p Page
	for i := 0; i < file.NumPages(); i++ {
		if err := file.ReadPage(PageID(i), &p); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, p[:]...)
	}
	return raw
}

// pagesOf makes a page file of the first pages pages of raw (the last one
// zero-padded), each resealed on request.
func pagesOf(t testing.TB, raw []byte, pages int, reseal bool) *MemFile {
	t.Helper()
	file := NewMemFile()
	for i := 0; i < pages; i++ {
		var p Page
		copy(p[:], raw[i*PageSize:])
		if reseal {
			SealPage(PageID(i), &p)
		}
		if err := file.WritePage(PageID(i), &p); err != nil {
			t.Fatal(err)
		}
	}
	return file
}

// firstPages is the first n pages of a page file.
type firstPages struct {
	PageFile
	n int
}

func (f firstPages) NumPages() int { return f.n }

// checkOpenWAL is the scan's property on arbitrary file bytes, taken as they
// are and again with every page resealed (so that damage to a payload
// reaches the parser): it never panics, and the log's history is decided
// front to back — whatever a scan of all the pages returns, a scan of any
// prefix of them succeeds too and returns a prefix of it.
func checkOpenWAL(t testing.TB, raw []byte) {
	t.Helper()
	npages := (len(raw) + PageSize - 1) / PageSize
	for _, reseal := range []bool{false, true} {
		w, full, err := OpenWAL(pagesOf(t, raw, npages, reseal))
		if err != nil {
			if w != nil || full != nil {
				t.Fatalf("failed open returned a log: %v", err)
			}
			continue
		}
		if int(w.Tail()) > npages {
			t.Fatalf("tail %d in a log of %d pages", w.Tail(), npages)
		}
		file := pagesOf(t, raw, npages, reseal)
		for cut := 0; cut < npages; cut++ {
			_, part, err := OpenWAL(firstPages{file, cut})
			if err != nil || len(part) > len(full) {
				t.Fatalf("first %d of %d pages: %d txns, %v; all pages gave %d", cut, npages, len(part), err, len(full))
			}
			for i := range part {
				if part[i].ID != full[i].ID || part[i].Op != full[i].Op || len(part[i].Docs) != len(full[i].Docs) ||
					len(part[i].Images) != len(full[i].Images) || (part[i].Digest == nil) != (full[i].Digest == nil) {
					t.Fatalf("first %d of %d pages: txn %d differs from the full scan's", cut, npages, i)
				}
			}
		}
	}
}

func TestOpenWALSeeds(t *testing.T) {
	logs, _ := walSeedLogs(t)
	for _, raw := range logs {
		checkOpenWAL(t, raw)
		checkOpenWAL(t, raw[:len(raw)-PageSize/2])
		_, txns, err := OpenWAL(pagesOf(t, raw, len(raw)/PageSize, false))
		if err != nil || len(txns) != 4 {
			t.Fatalf("seed log scans as %d txns, %v", len(txns), err)
		}
	}
}

// fuzzWALLog is the log FuzzOpenWAL scans: one committed transaction, then
// the fuzzed record stream on sealed pages of chunk record bytes each — so
// that a short stream still crosses page boundaries, wherever the fuzzer
// puts them — and the torn-th of those pages, if there is one, damaged.
func fuzzWALLog(t testing.TB, stream []byte, chunk, torn uint8) []byte {
	file := NewMemFile()
	w, _, _ := OpenWAL(file)
	if _, err := w.AppendLogical(WALInsert, []WALDoc{{ID: "keep", Image: []byte("k")}}, nil); err != nil {
		t.Fatal(err)
	}
	n := int(chunk)
	if n == 0 {
		n = walPageCap
	}
	n = max(n, len(stream)/16+1) // sixteen pages at most
	writeWALStream(t, file, w.Tail(), 1, stream, n)
	if at := int(w.Tail()) + int(torn); at < file.NumPages() {
		var p Page
		if err := file.ReadPage(PageID(at), &p); err != nil {
			t.Fatal(err)
		}
		p[PageSize-1] ^= 0xFF
		if err := file.WritePage(PageID(at), &p); err != nil {
			t.Fatal(err)
		}
	}
	return rawPages(t, file)
}

// FuzzOpenWAL feeds the log scan arbitrary record bytes in verified pages,
// behind a committed transaction that no continuation may cost the log.
func FuzzOpenWAL(f *testing.F) {
	_, streams := walSeedLogs(f)
	for _, stream := range streams {
		f.Add(stream, uint8(0), uint8(255))
		f.Add(stream, uint8(61), uint8(255))
		f.Add(stream[:len(stream)/2], uint8(61), uint8(255))
		f.Add(stream, uint8(61), uint8(1))
	}
	f.Fuzz(func(t *testing.T, stream []byte, chunk, torn uint8) {
		raw := fuzzWALLog(t, stream, chunk, torn)
		checkOpenWAL(t, raw)
		_, txns, err := OpenWAL(pagesOf(t, raw, len(raw)/PageSize, false))
		if err == nil && (len(txns) == 0 || txns[0].Docs[0].ID != "keep") {
			t.Fatalf("the committed transaction ahead of the fuzzed pages is gone: %d txns", len(txns))
		}
		if err != nil && !errors.Is(err, ErrWALFormat) {
			t.Fatalf("a memory file's log failed to open with %v", err)
		}
	})
}
