package storage

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sjos/internal/xmltree"
)

func TestSealVerifyRoundTrip(t *testing.T) {
	var p Page
	for i := PageHeaderSize; i < PageSize; i++ {
		p[i] = byte(i * 31)
	}
	SealPage(42, &p)
	if err := VerifyPage(42, &p); err != nil {
		t.Fatalf("sealed page fails verification: %v", err)
	}

	// Wrong expected ID → misdirected-read error.
	err := VerifyPage(7, &p)
	var ce *CorruptPageError
	if !errors.As(err, &ce) || ce.Tag != "page-id" || ce.Page != 7 || ce.Got != 42 {
		t.Fatalf("verify with wrong id: %v", err)
	}

	// Payload bit flip → checksum error.
	p[100] ^= 0x01
	err = VerifyPage(42, &p)
	if !errors.As(err, &ce) || ce.Tag != "checksum" {
		t.Fatalf("verify of damaged page: %v", err)
	}
	if !IsCorrupt(err) {
		t.Fatal("IsCorrupt = false for CorruptPageError")
	}
}

// fastRetry keeps test backoffs negligible.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}

// TestPoolDetectsCorruption: a page damaged at rest surfaces as a typed
// *CorruptPageError (permanent corruption survives every retry) and the
// failure is counted.
func TestPoolDetectsCorruption(t *testing.T) {
	f := NewMemFile()
	writePages(t, f, 3)
	// Damage page 1 behind the pool's back.
	var p Page
	if err := f.ReadPage(1, &p); err != nil {
		t.Fatal(err)
	}
	p[500] ^= 0x40
	if err := f.WritePage(1, &p); err != nil {
		t.Fatal(err)
	}

	bp := NewBufferPool(f, 4)
	bp.SetRetryPolicy(fastRetry)
	if _, err := bp.Get(0); err != nil {
		t.Fatalf("intact page: %v", err)
	}
	bp.Unpin(0, false)

	_, err := bp.Get(1)
	var ce *CorruptPageError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt page: err = %v", err)
	}
	if ce.Page != 1 || ce.Tag != "checksum" || ce.Attempts != fastRetry.MaxAttempts {
		t.Fatalf("corrupt error detail: %+v", ce)
	}
	st := bp.Stats()
	if st.ChecksumFailures != uint64(fastRetry.MaxAttempts) {
		t.Fatalf("ChecksumFailures = %d, want %d", st.ChecksumFailures, fastRetry.MaxAttempts)
	}
	if st.Retries != uint64(fastRetry.MaxAttempts-1) {
		t.Fatalf("Retries = %d, want %d", st.Retries, fastRetry.MaxAttempts-1)
	}
	if st.Pinned != 0 {
		t.Fatalf("Pinned = %d after failed Get, want 0", st.Pinned)
	}
	// The failed page never became resident.
	if st.Resident != 1 {
		t.Fatalf("Resident = %d, want 1", st.Resident)
	}
}

// healingFile fails (or corrupts) the first failN reads of each call
// sequence, then serves clean pages — the shape retry is designed to heal.
type healingFile struct {
	*MemFile
	failN   int // reads left to sabotage
	corrupt bool
	reads   int
}

func (h *healingFile) ReadPage(id PageID, dst *Page) error {
	h.reads++
	if h.failN > 0 {
		h.failN--
		if h.corrupt {
			if err := h.MemFile.ReadPage(id, dst); err != nil {
				return err
			}
			dst[PageHeaderSize+3] ^= 0x80 // torn read: payload damaged in flight
			return nil
		}
		return MarkTransient(errors.New("flaky read"))
	}
	return h.MemFile.ReadPage(id, dst)
}

func TestPoolRetriesTransientReadFailures(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		t.Run(fmt.Sprintf("corrupt=%v", corrupt), func(t *testing.T) {
			mf := NewMemFile()
			writePages(t, mf, 2)
			h := &healingFile{MemFile: mf, failN: 2, corrupt: corrupt}
			bp := NewBufferPool(h, 4)
			bp.SetRetryPolicy(fastRetry)

			pg, err := bp.Get(0)
			if err != nil {
				t.Fatalf("Get over healing file: %v", err)
			}
			if pg[PageHeaderSize] != 0 {
				t.Fatalf("content = %d", pg[PageHeaderSize])
			}
			bp.Unpin(0, false)
			st := bp.Stats()
			if st.Retries != 2 {
				t.Fatalf("Retries = %d, want 2", st.Retries)
			}
			if corrupt && st.ChecksumFailures != 2 {
				t.Fatalf("ChecksumFailures = %d, want 2", st.ChecksumFailures)
			}
		})
	}
}

// TestPoolRetryExhaustion: a transient fault that outlasts MaxAttempts
// surfaces the underlying error, and permanent (unmarked) errors fail fast
// without retrying.
func TestPoolRetryExhaustion(t *testing.T) {
	mf := NewMemFile()
	writePages(t, mf, 1)
	h := &healingFile{MemFile: mf, failN: 100}
	bp := NewBufferPool(h, 2)
	bp.SetRetryPolicy(fastRetry)
	if _, err := bp.Get(0); !IsTransient(err) {
		t.Fatalf("exhausted transient: err = %v", err)
	}
	if h.reads != fastRetry.MaxAttempts {
		t.Fatalf("reads = %d, want %d", h.reads, fastRetry.MaxAttempts)
	}

	mf2 := NewMemFile()
	writePages(t, mf2, 1)
	perm := &flakyFile{MemFile: mf2, failReads: true}
	bp2 := NewBufferPool(perm, 2)
	bp2.SetRetryPolicy(fastRetry)
	if _, err := bp2.Get(0); !errors.Is(err, errFlaky) {
		t.Fatalf("permanent failure: err = %v", err)
	}
	if got := bp2.Stats().Retries; got != 0 {
		t.Fatalf("permanent failure retried %d times", got)
	}
}

// TestPoolRetryHonorsCancellation: a cancelled context aborts the backoff
// wait promptly instead of sleeping out the full schedule.
func TestPoolRetryHonorsCancellation(t *testing.T) {
	mf := NewMemFile()
	writePages(t, mf, 1)
	h := &healingFile{MemFile: mf, failN: 1000}
	bp := NewBufferPool(h, 2)
	// Long backoff: without cancellation this Get would block for ~minutes.
	bp.SetRetryPolicy(RetryPolicy{MaxAttempts: 1000, BaseDelay: time.Minute, MaxDelay: time.Minute})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := bp.GetCtx(ctx, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the Get enter its backoff wait
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get: err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Get did not return promptly")
	}
	if st := bp.Stats(); st.Pinned != 0 {
		t.Fatalf("Pinned = %d after cancelled Get", st.Pinned)
	}
}

// TestStoreChecksumRoundTripAcrossRebuild: a store image built on a
// DiskFile verifies cleanly after reopen, and on-disk damage to any page is
// detected when that page is read through a fresh pool.
func TestStoreChecksumRoundTripAcrossRebuild(t *testing.T) {
	doc := buildDoc(t, 3000)
	path := filepath.Join(t.TempDir(), "store.db")
	d, err := CreateDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildStoreOn(d, doc, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Scan every tag once: all pages verify.
	total := 0
	for tag := 0; tag < doc.NumTags(); tag++ {
		sc := st.ScanTag(xmltree.TagID(tag))
		for {
			_, _, ok, err := sc.Next()
			if err != nil {
				t.Fatalf("scan tag %d: %v", tag, err)
			}
			if !ok {
				break
			}
			total++
		}
	}
	if total != doc.NumNodes() {
		t.Fatalf("scanned %d nodes, want %d", total, doc.NumNodes())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and damage one byte of page 2 on disk.
	d2, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var pg Page
	if err := d2.ReadPage(2, &pg); err != nil {
		t.Fatal(err)
	}
	pg[300] ^= 0x08
	if err := d2.WritePage(2, &pg); err != nil {
		t.Fatal(err)
	}

	bp := NewBufferPool(d2, 8)
	bp.SetRetryPolicy(fastRetry)
	if _, err := bp.Get(1); err != nil {
		t.Fatalf("intact page after reopen: %v", err)
	}
	bp.Unpin(1, false)
	_, err = bp.Get(2)
	var ce *CorruptPageError
	if !errors.As(err, &ce) || ce.Page != 2 {
		t.Fatalf("damaged page after reopen: err = %v", err)
	}
}

// TestPoolSingleFlightLoad: concurrent Gets of one absent page issue a
// single physical read.
func TestPoolSingleFlightLoad(t *testing.T) {
	mf := NewMemFile()
	writePages(t, mf, 2)
	slow := &slowFile{MemFile: mf, delay: 20 * time.Millisecond}
	bp := NewBufferPool(slow, 4)

	const readers = 8
	done := make(chan error, readers)
	for g := 0; g < readers; g++ {
		go func() {
			pg, err := bp.Get(0)
			if err == nil {
				if pg[PageHeaderSize] != 0 {
					err = fmt.Errorf("content = %d", pg[PageHeaderSize])
				}
				bp.Unpin(0, false)
			}
			done <- err
		}()
	}
	for g := 0; g < readers; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := mf.Reads(); got != 1 {
		t.Fatalf("physical reads = %d, want 1 (single-flight)", got)
	}
	st := bp.Stats()
	if st.Pinned != 0 {
		t.Fatalf("Pinned = %d, want 0", st.Pinned)
	}
}

type slowFile struct {
	*MemFile
	delay time.Duration
}

func (s *slowFile) ReadPage(id PageID, dst *Page) error {
	time.Sleep(s.delay)
	return s.MemFile.ReadPage(id, dst)
}
