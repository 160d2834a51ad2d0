package sjos

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"sjos/internal/storage"
)

// TestQueryContextCacheWarm: the second identical query is served from the
// plan cache with byte-identical matches.
func TestQueryContextCacheWarm(t *testing.T) {
	db := openDB(t)
	src := "//manager//employee/name"
	cold, err := db.QueryContext(context.Background(), src, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CachedPlan {
		t.Fatal("first query cannot be a cache hit")
	}
	warm, err := db.QueryContext(context.Background(), src, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CachedPlan {
		t.Fatal("second identical query must hit the plan cache")
	}
	if !reflect.DeepEqual(corpusMatches(cold.Segments, cold.Count), corpusMatches(warm.Segments, warm.Count)) {
		t.Fatal("cached plan produced different matches")
	}
	if warm.PlanText != cold.PlanText || warm.EstCost != cold.EstCost {
		t.Fatalf("cached plan metadata diverged: %q vs %q", warm.PlanText, cold.PlanText)
	}
	cs := db.Metrics().Cache
	if cs.Misses != 1 || cs.Hits != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats: %+v", cs)
	}
}

// TestPlanCacheMethodsDistinct: different methods get separate entries, and
// a repeat under one method hits its entry.
func TestPlanCacheMethodsDistinct(t *testing.T) {
	db := openDB(t)
	src := "//manager//employee/name"
	for _, m := range []Method{MethodDPP, MethodFP} {
		if _, err := db.QueryContext(context.Background(), src, methodOpts(m)); err != nil {
			t.Fatal(err)
		}
	}
	if cs := db.Metrics().Cache; cs.Misses != 2 || cs.Entries != 2 {
		t.Fatalf("methods must not share entries: %+v", cs)
	}
	pat := MustParsePattern(src)
	if _, err := db.queryPattern(context.Background(), pat, methodOpts(MethodDPAPEB)); err != nil {
		t.Fatal(err)
	}
	res, err := db.queryPattern(context.Background(), pat, methodOpts(MethodDPAPEB))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CachedPlan {
		t.Fatal("a repeated DPAP-EB query must hit its cache entry")
	}
	if cs := db.Metrics().Cache; cs.Misses != 3 || cs.Entries != 3 {
		t.Fatalf("DPAP-EB must have its own entry: %+v", cs)
	}
}

// TestPlanCacheRenumberingInvariance: two sources whose only difference is
// branch order produce differently numbered patterns of the same canonical
// shape — the second must be a cache hit, and its remapped plan must
// execute correctly against its own numbering.
func TestPlanCacheRenumberingInvariance(t *testing.T) {
	db := openDB(t)
	a := "//manager[.//employee/name][.//department/name]"
	b := "//manager[.//department/name][.//employee/name]"
	ra, err := db.QueryContext(context.Background(), a, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := db.QueryContext(context.Background(), b, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if !rb.CachedPlan {
		t.Fatal("structurally equivalent query must hit the cache")
	}
	if ra.Count != rb.Count {
		t.Fatalf("match counts diverge: %d vs %d", ra.Count, rb.Count)
	}
	// Same bindings, modulo the node renumbering: compare the manager
	// bindings (node 0 in both) as multisets via sorted order.
	ma, mb := rowsOf(ra.Segments), rowsOf(rb.Segments)
	for i := range ma {
		if ma[i][0] != mb[i][0] {
			t.Fatalf("match %d: manager binding %v vs %v", i, ma[i][0], mb[i][0])
		}
	}
	if cs := db.Metrics().Cache; cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("cache stats: %+v", cs)
	}
}

// TestPlanCacheConcurrent: many goroutines issuing the same query must
// coalesce onto one optimizer run (exercises single-flight under -race).
func TestPlanCacheConcurrent(t *testing.T) {
	db := openDB(t)
	src := "//manager[.//employee/name]//department/name"
	const n = 16
	results := make([]*CorpusQueryResult, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i], errs[i] = db.QueryContext(context.Background(), src, methodOpts(MethodDPP))
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(rowsOf(results[i].Segments), rowsOf(results[0].Segments)) {
			t.Fatalf("goroutine %d: divergent matches", i)
		}
	}
	cs := db.Metrics().Cache
	if cs.Misses != 1 {
		t.Fatalf("optimizer ran %d times for one query shape: %+v", cs.Misses, cs)
	}
	if cs.Hits+cs.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d: %+v", cs.Hits+cs.Coalesced, n-1, cs)
	}
}

// TestRebuildStatsInvalidates: rebuilding statistics empties the cache and
// forces re-optimization, while queries keep working.
func TestRebuildStatsInvalidates(t *testing.T) {
	db := openDB(t)
	src := "//manager//employee/name"
	if _, err := db.QueryContext(context.Background(), src, methodOpts(MethodDPP)); err != nil {
		t.Fatal(err)
	}
	if cs := db.Metrics().Cache; cs.Entries != 1 {
		t.Fatalf("expected one cached entry: %+v", cs)
	}
	db.RebuildStats()
	cs := db.Metrics().Cache
	if cs.Entries != 0 || cs.Invalidations != 1 {
		t.Fatalf("rebuild must clear the cache: %+v", cs)
	}
	res, err := db.QueryContext(context.Background(), src, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedPlan {
		t.Fatal("post-rebuild query must re-optimize")
	}
	if db.Metrics().Cache.Misses != 2 {
		t.Fatalf("stats: %+v", db.Metrics().Cache)
	}
}

// TestQueryContextCancelled: a pre-cancelled context aborts the query
// before any optimizer or executor work.
func TestQueryContextCancelled(t *testing.T) {
	db := openDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "//manager//employee/name", methodOpts(MethodDPP)); !errors.Is(err, context.Canceled) {
		t.Errorf("query: err = %v, want context.Canceled", err)
	}
	if _, err := db.OptimizeContext(ctx, MustParsePattern("//manager//employee"), MethodDP, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("optimize: err = %v, want context.Canceled", err)
	}
	pat := MustParsePattern("//manager//employee")
	plan := mustOptimize(t, db, pat, MethodDPP)
	if _, err := db.Run(ctx, pat, plan.Plan, QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("run: err = %v, want context.Canceled", err)
	}
}

// cancelOnRead is a page file that, once armed, cancels a context on its
// next page read — a deterministic way to cancel a query mid-execution: the
// scans read the store as they advance, and the next interrupt poll sees the
// cancellation.
type cancelOnRead struct {
	PageFile
	cancel atomic.Pointer[context.CancelFunc]
}

func (f *cancelOnRead) ReadPage(id storage.PageID, dst *storage.Page) error {
	if cancel := f.cancel.Swap(nil); cancel != nil {
		(*cancel)()
	}
	return f.PageFile.ReadPage(id, dst)
}

// TestRunCancelMidExecution: the serial executor's interrupt polls abort an
// execution that has started reading the store; the error surfaces from Run.
func TestRunCancelMidExecution(t *testing.T) {
	file := &cancelOnRead{PageFile: NewMemPageFile()}
	db := datasetCorpus(t, "pers", 1, 0, &CorpusOptions{PoolFrames: 16, ShardPageFile: storeOn(file)})
	pat := MustParsePattern("//manager//employee/name")
	res := mustOptimize(t, db, pat, MethodDPP)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	file.cancel.Store(&cancel)
	if _, err := db.Run(ctx, pat, res.Plan, QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if file.cancel.Load() != nil {
		t.Fatal("the run read no page: the cancel did not land mid-execution")
	}
}

// TestRunCancelPrompt: cancelling a Run mid-flight makes it return promptly
// with the context error. The pool is warm, so no page read waits on the
// context: only the executor's Interrupt poll, which Run wires to ctx, can
// stop it.
func TestRunCancelPrompt(t *testing.T) {
	db := datasetCorpus(t, "pers", 4, 0, nil)
	pat := MustParsePattern("//manager//manager//employee/name")
	res := mustOptimize(t, db, pat, MethodDPP)
	if _, err := db.Run(context.Background(), pat, res.Plan, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	misses := db.Metrics().Pool.Misses
	// The cancelling goroutine may not get a processor before the
	// scatter's workers finish; a run the cancel missed is tried again.
	var rerr error
	var elapsed time.Duration
	for try := 0; try < 5 && rerr == nil; try++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
		start := time.Now()
		_, rerr = db.Run(ctx, pat, res.Plan, QueryOptions{})
		elapsed = time.Since(start)
		cancel()
	}
	if got := db.Metrics().Pool.Misses; got != misses {
		t.Fatalf("pool took %d misses on the warm run", got-misses)
	}
	if rerr == nil {
		t.Skip("execution finished before the cancel landed")
	}
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", rerr)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %v to return", elapsed)
	}
}

// TestRunOptionsModes: Run's option combinations agree with each other.
func TestRunOptionsModes(t *testing.T) {
	db := openDB(t)
	pat := MustParsePattern("//manager//employee/name")
	res := mustOptimize(t, db, pat, MethodDPP)
	full, err := db.Run(context.Background(), pat, res.Plan, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count != len(full.Matches) || full.Count == 0 {
		t.Fatalf("full run: %+v", full)
	}
	cnt, err := db.Run(context.Background(), pat, res.Plan, QueryOptions{CountOnly: true})
	if err != nil || cnt.Count != full.Count || cnt.Matches != nil {
		t.Fatalf("count-only: %+v, %v", cnt, err)
	}
	lim, err := db.Run(context.Background(), pat, res.Plan, QueryOptions{ExecOptions: ExecOptions{Limit: 2}})
	if err != nil || len(lim.Matches) != 2 || !reflect.DeepEqual(lim.Matches, full.Matches[:2]) {
		t.Fatalf("limit: %+v, %v", lim, err)
	}
}

// TestWarmCacheOptimizeSpeedup: the acceptance criterion — a warm-cache
// optimize phase at least 10x faster than a cold one, with byte-identical
// matches. DP on a 7-node pattern makes the cold phase comfortably
// measurable.
func TestWarmCacheOptimizeSpeedup(t *testing.T) {
	db := openDB(t)
	src := "//manager[.//employee/name][.//department/name]//employee/name"
	opts := methodOpts(MethodDP)

	pat := MustParsePattern(src)
	cold := time.Duration(1<<63 - 1)
	var coldPlan *Plan
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		r, err := db.OptimizeContext(context.Background(), pat, MethodDP, 0)
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if d < cold {
			cold, coldPlan = d, r.Plan
		}
	}
	coldMatches, _, err := execAll(db, pat, coldPlan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(context.Background(), src, opts); err != nil {
		t.Fatal(err) // populate the cache
	}
	warm := time.Duration(1<<63 - 1)
	var warmRes *CorpusQueryResult
	for i := 0; i < 3; i++ {
		r, err := db.QueryContext(context.Background(), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !r.CachedPlan {
			t.Fatal("warm query missed the cache")
		}
		if r.OptimizeTime < warm {
			warm, warmRes = r.OptimizeTime, r
		}
	}
	if !reflect.DeepEqual(coldMatches, rowsOf(warmRes.Segments)) {
		t.Fatal("warm matches differ from cold matches")
	}
	if cold < 50*time.Microsecond {
		t.Skipf("cold optimize too fast to compare reliably (%v)", cold)
	}
	if warm*10 > cold {
		t.Fatalf("warm optimize %v not 10x faster than cold %v", warm, cold)
	}
}
