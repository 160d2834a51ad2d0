package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestDiskFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := CreateDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var p Page
		p[0] = byte(i + 1)
		p[PageSize-1] = byte(i + 100)
		if err := d.WritePage(PageID(i), &p); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumPages() != 5 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
	var p Page
	if err := d.ReadPage(3, &p); err != nil {
		t.Fatal(err)
	}
	if p[0] != 4 || p[PageSize-1] != 103 {
		t.Fatalf("page 3 content = %d/%d", p[0], p[PageSize-1])
	}
	if err := d.ReadPage(9, &p); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := d.WritePage(7, &p); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("write with hole: %v", err)
	}
	if d.Reads() != 1 || d.Writes() != 5 {
		t.Fatalf("Reads/Writes = %d/%d", d.Reads(), d.Writes())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskFilePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := CreateDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	copy(p[:], "hello pages")
	if err := d.WritePage(0, &p); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d", d2.NumPages())
	}
	var q Page
	if err := d2.ReadPage(0, &q); err != nil {
		t.Fatal(err)
	}
	if string(q[:11]) != "hello pages" {
		t.Fatalf("content lost: %q", q[:11])
	}
}

func TestOpenDiskFileErrors(t *testing.T) {
	if _, err := OpenDiskFile(filepath.Join(t.TempDir(), "absent.db")); err == nil {
		t.Fatal("opening a missing file should fail")
	}
}

// appendFragment leaves 100 bytes behind the file's last page: what a write
// cut short leaves.
func appendFragment(t testing.TB, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0xEE}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDiskFileShortTail: bytes past the last whole page — what a write
// cut short by a full disk leaves — are not a page and do not stop the open;
// the next page written goes over them.
func TestOpenDiskFileShortTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.db")
	d, err := CreateDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p Page
	for i := 0; i < 2; i++ {
		p[PageHeaderSize] = byte('a' + i)
		SealPage(PageID(i), &p)
		if err := d.WritePage(PageID(i), &p); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	appendFragment(t, path)

	d, err = OpenDiskFile(path)
	if err != nil {
		t.Fatalf("a file with a fragment behind its last page does not open: %v", err)
	}
	defer d.Close()
	if d.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2 (the fragment is no page)", d.NumPages())
	}
	if err := d.ReadPage(2, &p); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("reading the fragment as a page: %v", err)
	}
	p[PageHeaderSize] = 'c'
	SealPage(2, &p)
	if err := d.WritePage(2, &p); err != nil {
		t.Fatal(err)
	}
	var q Page
	for i := 0; i < 3; i++ {
		if err := d.ReadPage(PageID(i), &q); err != nil {
			t.Fatal(err)
		}
		if err := VerifyPage(PageID(i), &q); err != nil || q[PageHeaderSize] != byte('a'+i) {
			t.Fatalf("page %d: %v, content %q", i, err, q[PageHeaderSize])
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 3*PageSize {
		t.Fatalf("file is %d bytes (%v), want three whole pages", st.Size(), err)
	}

	// A file shorter than one page is an empty page file.
	tiny := filepath.Join(t.TempDir(), "tiny.db")
	if err := os.WriteFile(tiny, []byte("not a page"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := OpenDiskFile(tiny)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.NumPages() != 0 {
		t.Fatalf("NumPages = %d for a ten-byte file", e.NumPages())
	}
}

func TestBufferPoolOverDiskFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pooled.db")
	d, err := CreateDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 10; i++ {
		var p Page
		p[PageHeaderSize] = byte(i)
		SealPage(PageID(i), &p)
		if err := d.WritePage(PageID(i), &p); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(d, 3)
	for round := 0; round < 2; round++ {
		for i := 0; i < 10; i++ {
			pg, err := bp.Get(PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			if pg[PageHeaderSize] != byte(i) {
				t.Fatalf("page %d content %d", i, pg[PageHeaderSize])
			}
			bp.Unpin(PageID(i), false)
		}
	}
	if bp.Stats().Evicted == 0 {
		t.Fatal("expected evictions")
	}
}
