// Package plancache is a bounded, concurrency-safe LRU cache for optimized
// query plans with single-flight deduplication of concurrent misses.
//
// The motivation is the paper's own premise: optimization is expensive
// enough to be worth doing well (its Table 2 counts plans considered; DP
// blows up past 8 pattern nodes), while production workloads re-issue a
// small set of structurally recurring query shapes. Keying the cache by the
// canonical pattern fingerprint (internal/pattern), the chosen method and
// the statistics version makes one optimizer run serve
// every structurally equivalent query until the statistics change.
//
// Single-flight semantics: when N goroutines miss on the same key
// simultaneously, exactly one (the leader) runs the compute function; the
// others wait for its result. A leader failure is never cached. If the
// leader fails because *its own* context was cancelled — or its compute
// function panicked — waiting callers whose contexts are still live retry
// the computation rather than inheriting a failure that was not theirs.
package plancache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Key identifies one cached plan. Method is opaque to the cache (the
// facade passes core.Method);
// StatsVersion changes whenever the statistics are rebuilt, so stale plans
// are unreachable immediately even before they fall off the LRU list.
type Key struct {
	Fingerprint  string
	Method       int
	StatsVersion uint64
}

// Stats is a snapshot of the cache's behaviour counters.
type Stats struct {
	// Hits counts lookups served from the cache.
	Hits int64
	// Misses counts lookups that ran the compute function (the leader of
	// each single-flight group).
	Misses int64
	// Coalesced counts lookups that waited on another goroutine's
	// in-flight computation instead of running their own.
	Coalesced int64
	// Evictions counts entries dropped by the LRU bound; Invalidations
	// counts entries dropped by Clear.
	Evictions     int64
	Invalidations int64
	// Entries and Capacity describe the current occupancy.
	Entries  int
	Capacity int
}

// Cache is the LRU + single-flight cache. The zero value is not usable;
// construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	inflight map[Key]*call[V]

	hits, misses, coalesced, evictions, invalidations int64
}

type lruEntry[V any] struct {
	key Key
	val V
}

// call is one in-flight computation; done is closed once val/err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// DefaultCapacity bounds the cache when the caller passes 0.
const DefaultCapacity = 256

// New constructs a cache holding at most capacity entries (0 selects
// DefaultCapacity; capacity is clamped to at least 1).
func New[V any](capacity int) *Cache[V] {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element),
		inflight: make(map[Key]*call[V]),
	}
}

// Get returns the cached value for k, if present, marking it recently used.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put inserts (or refreshes) a value without single-flight coordination.
func (c *Cache[V]) Put(k Key, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, v)
}

// put inserts under c.mu.
func (c *Cache[V]) put(k Key, v V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[V]{key: k, val: v})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// GetOrCompute returns the value for k, computing it at most once across
// concurrent callers. The boolean reports whether the caller avoided the
// computation (a cache hit, or a wait coalesced onto another goroutine's
// computation). A compute error is returned uncached; ctx cancels the wait
// (and, for the leader, should cancel the computation itself — compute
// closures are expected to observe the same ctx).
func (c *Cache[V]) GetOrCompute(ctx context.Context, k Key, compute func() (V, error)) (V, bool, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[k]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			v := el.Value.(*lruEntry[V]).val
			c.mu.Unlock()
			return v, true, nil
		}
		if cl, ok := c.inflight[k]; ok {
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if cl.err == nil {
				return cl.val, true, nil
			}
			// The leader failed. If it failed only because its own
			// context died or its compute panicked while our context is
			// still live, try again (the retry either becomes the new
			// leader or joins a newer flight); otherwise propagate the
			// real failure.
			if ctx.Err() == nil && (isContextErr(cl.err) || errors.Is(cl.err, ErrAbandoned)) {
				continue
			}
			return zero, false, cl.err
		}
		cl := &call[V]{done: make(chan struct{})}
		c.inflight[k] = cl
		c.misses++
		c.mu.Unlock()

		if err := c.lead(k, cl, compute); err != nil {
			return zero, false, err
		}
		return cl.val, false, nil
	}
}

// ErrAbandoned is what the waiters of a flight see when its leader's
// compute function panicked: no value, no verdict on the key. They retry.
var ErrAbandoned = errors.New("plancache: computation abandoned by its leader")

// lead runs compute as the leader of flight cl and releases the flight —
// whatever happens: a panic in compute unwinds through here to the caller's
// recover (the read envelope's), and must not leave the key in flight with
// done never closed, or every later query of that shape would block until
// its own deadline.
func (c *Cache[V]) lead(k Key, cl *call[V], compute func() (V, error)) error {
	cl.err = ErrAbandoned // stands only if compute does not return
	defer func() {
		c.mu.Lock()
		delete(c.inflight, k)
		if cl.err == nil {
			c.put(k, cl.val)
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.val, cl.err = compute()
	return cl.err
}

// isContextErr reports whether err is a context cancellation or deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Clear drops every cached entry (in-flight computations are unaffected;
// they re-insert under their own key when they finish). It returns the
// number of entries removed.
func (c *Cache[V]) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[Key]*list.Element)
	c.invalidations += int64(n)
	return n
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the behaviour counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       c.ll.Len(),
		Capacity:      c.capacity,
	}
}
