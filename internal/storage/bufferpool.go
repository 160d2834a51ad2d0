package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPoolFrames is the default buffer pool capacity: 2048 frames of 8 KB
// = 16 MB, matching the SHORE buffer pool size used in the paper's
// experiments.
const DefaultPoolFrames = 2048

// BufferPool caches pages of a PageFile in a fixed number of frames with an
// LRU replacement policy and pin counting. It is safe for concurrent use.
//
// Physical reads are verified against the page integrity header (see
// SealPage/VerifyPage) and retried under the pool's RetryPolicy when the
// failure is transient or a checksum mismatch; reads are single-flight per
// page (concurrent Gets of a page being loaded wait for the one loader
// instead of issuing duplicate I/O), and the I/O itself — including its
// backoff waits — happens outside the pool lock, so one slow or retrying
// read never stalls unrelated pages.
type BufferPool struct {
	file   PageFile
	frames int

	mu      sync.Mutex
	retry   RetryPolicy
	table   map[PageID]*frame
	lru     lruList  // unpinned frames, front = least recently used
	free    []*frame // allocated frames whose page read failed, for reuse
	hits    uint64
	misses  uint64
	evicted uint64

	// Lock-free: bumped from the retry loop, which runs without bp.mu.
	retries       atomic.Uint64
	checksumFails atomic.Uint64
}

type frame struct {
	id    PageID
	page  Page
	pins  int
	dirty bool
	// prev and next thread the frame into the pool's LRU list while it is
	// resident and unpinned (inLRU); an intrusive list, so unpinning a page
	// allocates nothing.
	prev, next *frame
	inLRU      bool
	// loading is non-nil while the frame's page is being read in; it is
	// closed when the load finishes (successfully or not). Loading frames
	// hold the loader's pin, so they are never eviction victims.
	loading chan struct{}
}

// lruList is a doubly linked list of frames through their prev/next fields.
type lruList struct{ front, back *frame }

func (l *lruList) pushBack(fr *frame) {
	fr.prev, fr.next, fr.inLRU = l.back, nil, true
	if l.back != nil {
		l.back.next = fr
	} else {
		l.front = fr
	}
	l.back = fr
}

func (l *lruList) remove(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		l.front = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		l.back = fr.prev
	}
	fr.prev, fr.next, fr.inLRU = nil, nil, false
}

// PoolStats is a snapshot of buffer pool counters.
type PoolStats struct {
	Hits, Misses, Evicted uint64
	Resident              int
	// Pinned is the total outstanding pin count across resident frames; a
	// quiescent pool must report 0 — the executor leak check.
	Pinned int
	// Retries counts physical re-reads issued by the retry policy;
	// ChecksumFailures counts page reads that failed integrity
	// verification (each failed attempt counts once).
	Retries, ChecksumFailures uint64
}

// ErrPoolFull is returned when every frame is pinned and a new page is
// requested.
var ErrPoolFull = errors.New("storage: buffer pool full (all frames pinned)")

// NewBufferPool creates a pool over file with the given number of frames
// (DefaultPoolFrames if frames <= 0) and the default retry policy.
func NewBufferPool(file PageFile, frames int) *BufferPool {
	if frames <= 0 {
		frames = DefaultPoolFrames
	}
	return &BufferPool{
		file:   file,
		frames: frames,
		retry:  DefaultRetryPolicy,
		table:  make(map[PageID]*frame, frames),
	}
}

// SetRetryPolicy replaces the pool's read-retry policy (zero fields fall
// back to DefaultRetryPolicy's values at use).
func (bp *BufferPool) SetRetryPolicy(p RetryPolicy) {
	bp.mu.Lock()
	bp.retry = p
	bp.mu.Unlock()
}

// Get pins page id and returns a pointer to its in-pool copy. The caller
// must Unpin it when done and must not retain the pointer afterwards. It is
// GetCtx with a background context (retry waits cannot be cancelled).
func (bp *BufferPool) Get(id PageID) (*Page, error) {
	return bp.GetCtx(context.Background(), id)
}

// GetCtx is Get under a context: if the page has to be read in (or another
// goroutine is already reading it), cancellation aborts the wait — including
// retry backoffs — and returns ctx's error promptly.
func (bp *BufferPool) GetCtx(ctx context.Context, id PageID) (*Page, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		bp.mu.Lock()
		if fr, ok := bp.table[id]; ok {
			if fr.loading == nil {
				bp.hits++
				bp.pinLocked(fr)
				bp.mu.Unlock()
				return &fr.page, nil
			}
			// Another goroutine is reading this page in: wait for its
			// load to settle, then re-check (it may have failed, in which
			// case this caller retries the load itself).
			ch := fr.loading
			bp.mu.Unlock()
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			continue
		}
		bp.misses++
		fr, evicted, err := bp.allocFrameLocked()
		if err != nil {
			bp.mu.Unlock()
			return nil, err
		}
		// Publish the frame in loading state (pinned by this loader) so
		// concurrent Gets of the same page coalesce onto one read, then
		// do the I/O — and any retry backoff — without the pool lock.
		fr.id = id
		fr.pins = 1
		fr.dirty = false
		ch := make(chan struct{})
		fr.loading = ch
		bp.table[id] = fr
		pol := bp.retry
		bp.mu.Unlock()

		rerr := bp.readVerified(ctx, pol, id, &fr.page)

		bp.mu.Lock()
		fr.loading = nil
		close(ch)
		if rerr != nil {
			// The caller gets an error, so the page never becomes
			// resident: unpublish the frame and return it to the free
			// list for the next Get to reuse (no second victim is evicted
			// for it), leaving the eviction counter untouched — PoolStats
			// only counts replacements that actually brought a page in.
			delete(bp.table, id)
			bp.freeFrameLocked(fr)
			bp.mu.Unlock()
			return nil, rerr
		}
		if evicted {
			bp.evicted++
		}
		bp.mu.Unlock()
		return &fr.page, nil
	}
}

// readVerified reads page id into dst and verifies its integrity header,
// retrying transient failures and checksum mismatches under pol. Permanent
// failures (and exhausted retries) return the last error; corruption
// surfaces as a *CorruptPageError carrying the attempt count.
func (bp *BufferPool) readVerified(ctx context.Context, pol RetryPolicy, id PageID, dst *Page) error {
	pol = pol.normalized()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := bp.file.ReadPage(id, dst)
		if err == nil {
			verr := VerifyPage(id, dst)
			if verr == nil {
				return nil
			}
			bp.checksumFails.Add(1)
			if ce, ok := verr.(*CorruptPageError); ok {
				ce.Attempts = attempt
			}
			err = verr
		}
		if attempt >= pol.MaxAttempts || !(IsTransient(err) || IsCorrupt(err)) {
			return err
		}
		bp.retries.Add(1)
		if serr := sleep(ctx, pol.backoff(attempt)); serr != nil {
			return serr
		}
	}
}

// Unpin releases one pin on page id; dirty marks the page as modified so it
// is written back on eviction or Flush.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	fr, ok := bp.table[id]
	if !ok || fr.pins == 0 {
		panic(fmt.Sprintf("storage: Unpin of unpinned page %d", id))
	}
	fr.dirty = fr.dirty || dirty
	fr.pins--
	if fr.pins == 0 {
		bp.lru.pushBack(fr)
	}
}

// Flush writes back all dirty pages, resealing their integrity headers.
// Pinned pages are flushed too (their contents at the time of the call);
// frames still loading are skipped (they cannot be dirty).
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.table {
		if fr.dirty && fr.loading == nil {
			SealPage(fr.id, &fr.page)
			if err := bp.file.WritePage(fr.id, &fr.page); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return nil
}

// Stats returns a snapshot of the pool's counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s := PoolStats{
		Hits:             bp.hits,
		Misses:           bp.misses,
		Evicted:          bp.evicted,
		Resident:         len(bp.table),
		Retries:          bp.retries.Load(),
		ChecksumFailures: bp.checksumFails.Load(),
	}
	for _, fr := range bp.table {
		s.Pinned += fr.pins
	}
	return s
}

func (bp *BufferPool) pinLocked(fr *frame) {
	if fr.inLRU {
		bp.lru.remove(fr)
	}
	fr.pins++
}

// allocFrameLocked returns a free frame, evicting the LRU unpinned page if
// the pool is at capacity. evicted reports whether a resident page was
// displaced; the caller counts it only once the replacement page is
// actually read in. Loading frames are pinned, so they are never victims.
func (bp *BufferPool) allocFrameLocked() (fr *frame, evicted bool, err error) {
	if n := len(bp.free); n > 0 {
		fr = bp.free[n-1]
		bp.free = bp.free[:n-1]
		return fr, false, nil
	}
	if len(bp.table) < bp.frames {
		return &frame{}, false, nil
	}
	fr = bp.lru.front
	if fr == nil {
		return nil, false, ErrPoolFull
	}
	if fr.dirty {
		SealPage(fr.id, &fr.page)
		if err := bp.file.WritePage(fr.id, &fr.page); err != nil {
			// Write-back failed: the victim stays resident and evictable
			// (it keeps its LRU slot) instead of leaking off both lists.
			return nil, false, err
		}
		fr.dirty = false
	}
	bp.lru.remove(fr)
	delete(bp.table, fr.id)
	return fr, true, nil
}

// freeFrameLocked returns a frame allocated by allocFrameLocked that was
// never successfully loaded; the next allocation reuses it before evicting
// anyone else.
func (bp *BufferPool) freeFrameLocked(fr *frame) {
	*fr = frame{}
	bp.free = append(bp.free, fr)
}
