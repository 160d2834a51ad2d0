package storage

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func writePages(t *testing.T, f *MemFile, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var p Page
		p[PageHeaderSize] = byte(i)
		p[PageHeaderSize+1] = byte(i >> 8)
		SealPage(PageID(i), &p)
		if err := f.WritePage(PageID(i), &p); err != nil {
			t.Fatalf("WritePage(%d): %v", i, err)
		}
	}
}

func TestMemFileBasics(t *testing.T) {
	f := NewMemFile()
	writePages(t, f, 5)
	if f.NumPages() != 5 {
		t.Fatalf("NumPages = %d", f.NumPages())
	}
	var p Page
	if err := f.ReadPage(3, &p); err != nil {
		t.Fatal(err)
	}
	if p[PageHeaderSize] != 3 {
		t.Fatalf("page 3 content = %d", p[PageHeaderSize])
	}
	if err := f.ReadPage(9, &p); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("read past end: err = %v", err)
	}
	if err := f.WritePage(7, &p); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("write with hole: err = %v", err)
	}
	if f.Reads() != 1 {
		t.Fatalf("Reads = %d, want 1", f.Reads())
	}
}

func TestBufferPoolHitsAndMisses(t *testing.T) {
	f := NewMemFile()
	writePages(t, f, 10)
	bp := NewBufferPool(f, 4)
	for i := 0; i < 4; i++ {
		pg, err := bp.Get(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if pg[PageHeaderSize] != byte(i) {
			t.Fatalf("page %d content = %d", i, pg[PageHeaderSize])
		}
		bp.Unpin(PageID(i), false)
	}
	st := bp.Stats()
	if st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("after cold reads: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if _, err := bp.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(PageID(i), false)
	}
	st = bp.Stats()
	if st.Hits != 4 {
		t.Fatalf("after warm reads: %+v", st)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	f := NewMemFile()
	writePages(t, f, 10)
	bp := NewBufferPool(f, 2)
	get := func(id PageID) {
		t.Helper()
		if _, err := bp.Get(id); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id, false)
	}
	get(0)
	get(1)
	get(0) // page 1 is now LRU
	get(2) // evicts page 1
	st := bp.Stats()
	if st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
	get(0) // should still be resident
	if got := bp.Stats().Hits; got != 2 {
		t.Fatalf("Hits = %d, want 2 (0 warm twice)", got)
	}
	get(1) // miss again
	if got := bp.Stats().Misses; got != 4 {
		t.Fatalf("Misses = %d, want 4", got)
	}
}

func TestBufferPoolPinnedPagesNotEvicted(t *testing.T) {
	f := NewMemFile()
	writePages(t, f, 10)
	bp := NewBufferPool(f, 2)
	if _, err := bp.Get(0); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Get(1); err != nil {
		t.Fatal(err)
	}
	// Both pinned; a third page cannot be brought in.
	if _, err := bp.Get(2); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Get with full pinned pool: err = %v", err)
	}
	bp.Unpin(0, false)
	if _, err := bp.Get(2); err != nil {
		t.Fatalf("Get after Unpin: %v", err)
	}
	bp.Unpin(1, false)
	bp.Unpin(2, false)
}

func TestBufferPoolDirtyWriteback(t *testing.T) {
	f := NewMemFile()
	writePages(t, f, 3)
	bp := NewBufferPool(f, 1)
	pg, err := bp.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	pg[100] = 0xAB
	bp.Unpin(0, true)
	// Evict page 0 by touching page 1.
	if _, err := bp.Get(1); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(1, false)
	var raw Page
	if err := f.ReadPage(0, &raw); err != nil {
		t.Fatal(err)
	}
	if raw[100] != 0xAB {
		t.Fatal("dirty page not written back on eviction")
	}
}

func TestBufferPoolFlush(t *testing.T) {
	f := NewMemFile()
	writePages(t, f, 2)
	bp := NewBufferPool(f, 4)
	pg, err := bp.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	pg[200] = 0x55
	bp.Unpin(1, true)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	var raw Page
	if err := f.ReadPage(1, &raw); err != nil {
		t.Fatal(err)
	}
	if raw[200] != 0x55 {
		t.Fatal("Flush did not persist dirty page")
	}
	// Flush must reseal: the persisted page verifies against its new
	// content.
	if err := VerifyPage(1, &raw); err != nil {
		t.Fatalf("flushed page fails verification: %v", err)
	}
}

func TestBufferPoolUnpinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of unpinned page should panic")
		}
	}()
	bp := NewBufferPool(NewMemFile(), 2)
	bp.Unpin(0, false)
}

func TestBufferPoolDefaultFrames(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 0)
	if bp.frames != DefaultPoolFrames {
		t.Fatalf("frames = %d, want %d", bp.frames, DefaultPoolFrames)
	}
}

// flakyFile wraps a MemFile with switchable read/write failures, for
// exercising the pool's I/O error paths.
type flakyFile struct {
	*MemFile
	failReads  bool
	failWrites bool
}

var errFlaky = errors.New("injected I/O failure")

func (f *flakyFile) ReadPage(id PageID, dst *Page) error {
	if f.failReads {
		return errFlaky
	}
	return f.MemFile.ReadPage(id, dst)
}

func (f *flakyFile) WritePage(id PageID, src *Page) error {
	if f.failWrites {
		return errFlaky
	}
	return f.MemFile.WritePage(id, src)
}

// TestBufferPoolReadFailureAccounting is the regression test for the
// eviction-counter skew: a Get whose ReadPage fails after a victim was
// evicted must not count as an eviction (no replacement page was brought
// in), and the freed frame must be reused by the next Get instead of
// evicting a second victim.
func TestBufferPoolReadFailureAccounting(t *testing.T) {
	mf := NewMemFile()
	writePages(t, mf, 10)
	f := &flakyFile{MemFile: mf}
	bp := NewBufferPool(f, 2)
	get := func(id PageID) {
		t.Helper()
		if _, err := bp.Get(id); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id, false)
	}
	get(0)
	get(1) // pool at capacity, both unpinned; page 0 is LRU

	f.failReads = true
	if _, err := bp.Get(2); !errors.Is(err, errFlaky) {
		t.Fatalf("Get with failing read: err = %v", err)
	}
	st := bp.Stats()
	// The old code bumped Evicted before attempting the read, reporting a
	// replacement that never happened.
	if st.Evicted != 0 {
		t.Fatalf("Evicted = %d after failed read, want 0", st.Evicted)
	}
	if st.Resident != 1 {
		t.Fatalf("Resident = %d after failed read, want 1 (victim gone, no replacement)", st.Resident)
	}

	// Recovery: the next Get reuses the freed frame — nobody else is
	// evicted for it.
	f.failReads = false
	get(2)
	st = bp.Stats()
	if st.Evicted != 0 {
		t.Fatalf("Evicted = %d after frame reuse, want 0", st.Evicted)
	}
	if st.Resident != 2 {
		t.Fatalf("Resident = %d, want 2", st.Resident)
	}

	// Back at capacity, a genuine replacement counts again.
	get(3)
	if st = bp.Stats(); st.Evicted != 1 {
		t.Fatalf("Evicted = %d after genuine eviction, want 1", st.Evicted)
	}
}

// TestBufferPoolWritebackFailureKeepsVictim: when evicting a dirty page
// whose write-back fails, the victim must stay resident and evictable
// rather than leaking out of both the table and the LRU list.
func TestBufferPoolWritebackFailureKeepsVictim(t *testing.T) {
	mf := NewMemFile()
	writePages(t, mf, 5)
	f := &flakyFile{MemFile: mf}
	bp := NewBufferPool(f, 1)
	pg, err := bp.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	pg[9] = 0x77
	bp.Unpin(0, true)

	f.failWrites = true
	if _, err := bp.Get(1); !errors.Is(err, errFlaky) {
		t.Fatalf("Get with failing write-back: err = %v", err)
	}
	// Victim still resident: getting it again is a hit, not ErrPoolFull.
	hits := bp.Stats().Hits
	if _, err := bp.Get(0); err != nil {
		t.Fatalf("victim page lost after failed write-back: %v", err)
	}
	bp.Unpin(0, false)
	if got := bp.Stats().Hits; got != hits+1 {
		t.Fatalf("Hits = %d, want %d (victim should still be cached)", got, hits+1)
	}

	// Once writes recover, the eviction goes through and the dirty page
	// lands on disk.
	f.failWrites = false
	if _, err := bp.Get(1); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(1, false)
	var raw Page
	if err := mf.ReadPage(0, &raw); err != nil {
		t.Fatal(err)
	}
	if raw[9] != 0x77 {
		t.Fatal("dirty victim not written back after write recovery")
	}
}

// TestBufferPoolDoubleUnpinPanics: the second Unpin of the same pin must
// panic rather than silently corrupting the pin count.
func TestBufferPoolDoubleUnpinPanics(t *testing.T) {
	mf := NewMemFile()
	writePages(t, mf, 2)
	bp := NewBufferPool(mf, 2)
	if _, err := bp.Get(0); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin should panic")
		}
	}()
	bp.Unpin(0, false)
}

// TestBufferPoolEvictionOrder pins the replacement policy itself: under a
// random mix of nested pins and unpins, the pool's unpinned frames stay in
// exactly the order of a slice-backed LRU model (front = next victim), every
// eviction takes the model's victim, and the counters agree throughout.
func TestBufferPoolEvictionOrder(t *testing.T) {
	const frames, pages = 4, 10
	f := NewMemFile()
	writePages(t, f, pages)
	bp := NewBufferPool(f, frames)

	var lru []PageID // model: resident unpinned pages, least recently unpinned first
	pins := map[PageID]int{}
	var want PoolStats
	drop := func(id PageID) {
		for i, p := range lru {
			if p == id {
				lru = append(lru[:i], lru[i+1:]...)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 4000; step++ {
		id := PageID(rng.Intn(pages))
		if pins[id] > 0 && rng.Intn(2) == 0 {
			bp.Unpin(id, false)
			if pins[id]--; pins[id] == 0 {
				lru = append(lru, id)
			}
			want.Pinned--
		} else {
			_, resident := pins[id]
			_, err := bp.Get(id)
			switch {
			case resident:
				want.Hits++
				drop(id)
			case len(pins) < frames:
				want.Misses++
			case len(lru) == 0:
				want.Misses++
				if !errors.Is(err, ErrPoolFull) {
					t.Fatalf("step %d: Get(%d) with every frame pinned: err = %v", step, id, err)
				}
				continue
			default:
				want.Misses++
				want.Evicted++
				delete(pins, lru[0])
				lru = lru[1:]
			}
			if err != nil {
				t.Fatalf("step %d: Get(%d): %v", step, id, err)
			}
			pins[id]++
			want.Pinned++
		}
		want.Resident = len(pins)
		if got := bp.Stats(); got != want {
			t.Fatalf("step %d: stats %+v, model %+v", step, got, want)
		}
		var got []PageID
		for fr := bp.lru.front; fr != nil; fr = fr.next {
			got = append(got, fr.id)
		}
		if !slices.Equal(got, lru) {
			t.Fatalf("step %d: LRU order %v, model %v", step, got, lru)
		}
		for id := range pins {
			if _, ok := bp.table[id]; !ok {
				t.Fatalf("step %d: page %d resident in the model, not in the pool", step, id)
			}
		}
	}
	if want.Evicted == 0 || want.Hits == 0 {
		t.Fatalf("walk exercised nothing: %+v", want)
	}
}
