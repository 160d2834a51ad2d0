package storage

import (
	"fmt"
	"os"
	"sync"
)

// DiskFile is a PageFile backed by an operating-system file. It is the
// persistent counterpart of MemFile: pages are written at fixed offsets
// with WriteAt/ReadAt, so a database image survives process restarts and
// the buffer pool's hit/miss behaviour translates into real I/O.
type DiskFile struct {
	mu     sync.Mutex
	f      *os.File
	pages  int
	reads  uint64
	writes uint64
}

// CreateDiskFile creates (or truncates) a page file at path.
func CreateDiskFile(path string) (*DiskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create disk file: %w", err)
	}
	return &DiskFile{f: f}, nil
}

// OpenDiskFile opens an existing page file at path. Bytes past the last
// whole page — a write cut short by a full disk, or power lost while the
// file was being extended — are no page: the file has size/PageSize pages,
// and the next page written lands over the fragment.
func OpenDiskFile(path string) (*DiskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open disk file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat disk file: %w", err)
	}
	return &DiskFile{f: f, pages: int(st.Size() / PageSize)}, nil
}

// ReadPage implements PageFile.
func (d *DiskFile) ReadPage(id PageID, dst *Page) error {
	d.mu.Lock()
	if int(id) >= d.pages {
		d.mu.Unlock()
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, d.pages)
	}
	d.reads++
	d.mu.Unlock()
	_, err := d.f.ReadAt(dst[:], int64(id)*PageSize)
	if err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements PageFile.
func (d *DiskFile) WritePage(id PageID, src *Page) error {
	d.mu.Lock()
	if int(id) > d.pages {
		d.mu.Unlock()
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, d.pages)
	}
	grow := int(id) == d.pages
	d.writes++
	d.mu.Unlock()
	if _, err := d.f.WriteAt(src[:], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	if grow {
		d.mu.Lock()
		if int(id) == d.pages {
			d.pages++
		}
		d.mu.Unlock()
	}
	return nil
}

// NumPages implements PageFile.
func (d *DiskFile) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Reads returns the number of page reads served.
func (d *DiskFile) Reads() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}

// Writes returns the number of page writes served.
func (d *DiskFile) Writes() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// Sync flushes the file to stable storage.
func (d *DiskFile) Sync() error { return d.f.Sync() }

// Close syncs and closes the file.
func (d *DiskFile) Close() error {
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}
