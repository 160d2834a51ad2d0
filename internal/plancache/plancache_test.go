package plancache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(fp string) Key { return Key{Fingerprint: fp, Method: 1} }

func TestGetPutLRU(t *testing.T) {
	c := New[int](2)
	c.Put(key("a"), 1)
	c.Put(key("b"), 2)
	if v, ok := c.Get(key("a")); !ok || v != 1 {
		t.Fatalf("a: got %d,%v", v, ok)
	}
	c.Put(key("c"), 3) // evicts b (a was refreshed by the Get above)
	if _, ok := c.Get(key("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get(key("a")); !ok {
		t.Fatal("a should have survived")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestKeyFieldsDistinguish(t *testing.T) {
	c := New[int](8)
	base := Key{Fingerprint: "fp", Method: 1, StatsVersion: 0}
	c.Put(base, 1)
	for i, k := range []Key{
		{Fingerprint: "fp2", Method: 1},
		{Fingerprint: "fp", Method: 2},
		{Fingerprint: "fp", Method: 1, StatsVersion: 1},
	} {
		if _, ok := c.Get(k); ok {
			t.Errorf("variant %d should miss", i)
		}
	}
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	c := New[int](8)
	var computes atomic.Int32
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once

	const n = 8
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), key("q"), func() (int, error) {
				once.Do(func() { close(entered) })
				computes.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	<-entered // the leader is inside compute; everyone else must coalesce
	// Each waiter increments Coalesced before blocking on the flight, so
	// polling the counter deterministically waits until all n-1 waiters
	// are parked; only then may the leader finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never coalesced: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (stats %+v)", st.Misses, st)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d (stats %+v)", st.Coalesced, n-1, st)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	c := New[int](8)
	boom := errors.New("boom")
	_, _, err := c.GetOrCompute(context.Background(), key("q"), func() (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result must not be cached")
	}
	v, _, err := c.GetOrCompute(context.Background(), key("q"), func() (int, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("retry after error: %d, %v", v, err)
	}
}

func TestWaiterRetriesAfterLeaderCancelled(t *testing.T) {
	c := New[int](8)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inCompute := make(chan struct{})
	var second atomic.Int32

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // leader: its own context is cancelled mid-compute
		defer wg.Done()
		_, _, err := c.GetOrCompute(leaderCtx, key("q"), func() (int, error) {
			close(inCompute)
			<-leaderCtx.Done()
			return 0, leaderCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v", err)
		}
	}()
	go func() { // waiter with a live context: must retry and succeed
		defer wg.Done()
		<-inCompute
		v, _, err := c.GetOrCompute(context.Background(), key("q"), func() (int, error) {
			second.Add(1)
			return 9, nil
		})
		if err != nil || v != 9 {
			t.Errorf("waiter: %d, %v", v, err)
		}
	}()
	<-inCompute
	time.Sleep(5 * time.Millisecond) // let the waiter block on the flight
	cancelLeader()
	wg.Wait()
	if second.Load() == 0 {
		// The waiter may have become the leader itself or joined a newer
		// flight; either way its compute must have run, since the cache
		// held no value.
		t.Fatal("waiter never recomputed after leader cancellation")
	}
}

// TestLeaderPanicReleasesFlight: a panicking compute unwinds to the caller's
// recover, and the key must not stay in flight behind it — the waiter on that
// flight retries as leader, and the shape stays servable afterwards.
func TestLeaderPanicReleasesFlight(t *testing.T) {
	c := New[int](8)
	inCompute := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // leader: its compute panics; the envelope recovers
		defer wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("leader's panic did not reach its caller")
			}
		}()
		c.GetOrCompute(context.Background(), key("q"), func() (int, error) {
			close(inCompute)
			<-release
			panic("optimizer fault")
		})
	}()
	waiterDone := make(chan struct{})
	go func() { // waiter on the doomed flight: must retry and succeed
		defer wg.Done()
		defer close(waiterDone)
		<-inCompute
		v, shared, err := c.GetOrCompute(context.Background(), key("q"), func() (int, error) { return 9, nil })
		if err != nil || v != 9 || shared {
			t.Errorf("waiter: %d, shared=%v, %v", v, shared, err)
		}
	}()
	<-inCompute
	for c.Stats().Coalesced == 0 { // until the waiter blocks on the flight
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-waiterDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after the leader panicked: flight never released")
	}
	wg.Wait()
	if v, hit, err := c.GetOrCompute(context.Background(), key("q"), func() (int, error) { return 0, errors.New("recomputed") }); err != nil || !hit || v != 9 {
		t.Fatalf("after the fault: %d, hit=%v, %v", v, hit, err)
	}
}

func TestWaiterContextCancelledWhileWaiting(t *testing.T) {
	c := New[int](8)
	inCompute := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.GetOrCompute(context.Background(), key("q"), func() (int, error) {
			close(inCompute)
			<-release
			return 1, nil
		})
	}()
	<-inCompute
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, key("q"), func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestClear(t *testing.T) {
	c := New[int](8)
	for i := 0; i < 5; i++ {
		c.Put(key(fmt.Sprintf("k%d", i)), i)
	}
	if n := c.Clear(); n != 5 {
		t.Fatalf("Clear removed %d, want 5", n)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after Clear")
	}
	if st := c.Stats(); st.Invalidations != 5 {
		t.Fatalf("invalidations = %d", st.Invalidations)
	}
}

func TestConcurrentMixedAccess(t *testing.T) {
	c := New[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprintf("k%d", i%24))
				switch i % 5 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				case 2:
					c.GetOrCompute(context.Background(), k, func() (int, error) { return i, nil })
				case 3:
					c.Stats()
				case 4:
					if i%50 == 4 {
						c.Clear()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
