package sjos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunTraceMatchesPlain: a traced Run returns the same matches as an
// untraced one, plus a plan-shaped trace whose root actuals agree with the
// result.
func TestRunTraceMatchesPlain(t *testing.T) {
	db := openDB(t)
	pat := MustParsePattern("//manager//employee/name")
	res := mustOptimize(t, db, pat, MethodDPP)
	plain, err := db.Run(context.Background(), pat, res.Plan, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced run carries a trace")
	}
	traced, err := db.Run(context.Background(), pat, res.Plan, QueryOptions{ExecOptions: ExecOptions{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("traced run has no trace")
	}
	if !reflect.DeepEqual(traced.Matches, plain.Matches) {
		t.Fatal("tracing changed the result")
	}
	if traced.Trace.Rows != int64(plain.Count) {
		t.Fatalf("trace root rows = %d, result count = %d", traced.Trace.Rows, plain.Count)
	}
	if traced.Trace.Clones != 1 {
		t.Fatalf("serial trace clones = %d, want 1", traced.Trace.Clones)
	}
}

// TestQueryMetrics: the registry counts queries, errors, and latency.
func TestQueryMetrics(t *testing.T) {
	db := openDB(t)
	if m := db.Metrics(); m.Query.Queries != 0 {
		t.Fatalf("fresh database metrics: %+v", m.Query)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.QueryContext(context.Background(), "//manager//employee/name", methodOpts(MethodDPP)); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m.Query.Queries != 3 || m.Query.Errors != 0 || m.Query.InFlight != 0 {
		t.Fatalf("after 3 queries: %+v", m.Query)
	}
	if m.Query.TotalTime <= 0 || m.Query.P50 <= 0 {
		t.Fatalf("latency not recorded: %+v", m.Query)
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != 2 {
		t.Fatalf("cache counters not surfaced: %+v", m.Cache)
	}
	if m.Query.Optimizations != 1 || m.Query.OptimizeTime <= 0 || m.Query.PlansConsidered == 0 {
		t.Fatalf("planning series must count the one search, not the two hits: %+v", m.Query)
	}

	// Failed executions count as errors. Run with a cancelled context so
	// the failure happens inside Run (the metered section).
	pat := MustParsePattern("//manager//employee")
	res := mustOptimize(t, db, pat, MethodDPP)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Run(ctx, pat, res.Plan, QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	m = db.Metrics()
	if m.Query.Errors != 1 {
		t.Fatalf("error not counted: %+v", m.Query)
	}
}

// TestWriteMetricsText: the Prometheus rendering includes the query,
// plan-cache and buffer-pool families.
func TestWriteMetricsText(t *testing.T) {
	db := openDB(t)
	if _, err := db.QueryContext(context.Background(), "//manager//employee/name", methodOpts(MethodDPP)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	db.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"sjos_queries_total 1",
		"sjos_query_errors_total 0",
		"sjos_queries_in_flight 0",
		`sjos_query_latency_seconds{quantile="0.95"}`,
		"sjos_plancache_misses_total 1",
		"sjos_plancache_entries 1",
		"sjos_optimize_seconds_sum ",
		"sjos_optimize_seconds_count 1",
		"sjos_plans_considered_total ",
		"sjos_pool_hits_total",
		"sjos_pool_resident_pages",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteMetrics missing %q\n%s", want, out)
		}
	}
}

// TestWriteMetricsIngest: the write envelope's series — mutations timed per
// operation, compactions and log length — on a corpus, where they sum over
// shards.
func TestWriteMetricsIngest(t *testing.T) {
	wals := newWALMap()
	c, err := NewCorpusBuilder(&CorpusOptions{Shards: 2, ShardWALFile: wals.file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		c.InsertString("a", orderXML(2)), c.InsertString("b", orderXML(3)),
		c.ReplaceString("a", orderXML(4)), c.Delete("b"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.InsertString("a", orderXML(1)); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	var b strings.Builder
	c.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		`sjos_ingest_seconds_count{op="insert"} 2`, // the refused duplicate is not an ingest
		`sjos_ingest_seconds_count{op="replace"} 1`,
		`sjos_ingest_seconds_count{op="delete"} 1`,
		`sjos_ingest_seconds_sum{op="insert"} `,
		fmt.Sprintf("sjos_compactions_total %d", c.IngestStats().Compactions),
		fmt.Sprintf("sjos_wal_pages %d", c.IngestStats().WALPages),
		"sjos_recovered_transactions 0", // opened on empty logs
		"sjos_recovery_seconds 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteMetrics missing %q\n%s", want, out)
		}
	}
	if c.IngestStats().WALPages == 0 || c.IngestStats().Compactions == 0 {
		t.Fatalf("history left %+v: want log pages and a compaction", c.IngestStats())
	}

	// Rebuilt from the same logs, the corpus says what it replayed.
	rec, err := NewCorpusBuilder(&CorpusOptions{Shards: 2, ShardWALFile: wals.file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	rec.WriteMetrics(&b)
	ist := rec.IngestStats()
	if want := fmt.Sprintf("sjos_recovered_transactions %d\n", ist.RecoveredTxns); ist.RecoveredTxns == 0 || !strings.Contains(b.String(), want) {
		t.Errorf("WriteMetrics after a recovery missing %q", want)
	}
	if want := fmt.Sprintf("sjos_recovery_seconds %g\n", ist.RecoverySeconds); ist.RecoverySeconds <= 0 || !strings.Contains(b.String(), want) {
		t.Errorf("WriteMetrics after a recovery missing %q", want)
	}
}

// TestWriteMetricsInvalidations: a committed write drops the cached plans
// its statistics change made stale, and /metrics counts them.
func TestWriteMetricsInvalidations(t *testing.T) {
	c, err := NewCorpusBuilder(&CorpusOptions{Shards: 1, ShardWALFile: newWALMap().file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertString("a", orderXML(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryContext(context.Background(), "//order/item", methodOpts(MethodDPP)); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertString("b", orderXML(3)); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	c.WriteMetrics(&b)
	if want := "sjos_plancache_invalidations_total 1\n"; !strings.Contains(b.String(), want) {
		t.Errorf("WriteMetrics missing %q\n%s", want, b.String())
	}
}

// TestSlowQueryLog: a zero-distance threshold catches every query with a
// full entry (fingerprint, timings, trace); raising the threshold stops
// the logging, and a zero threshold turns it off.
func TestSlowQueryLog(t *testing.T) {
	db := openDB(t)
	var mu sync.Mutex
	var logged []SlowQueryEntry
	db.SetSlowQueryLog(time.Nanosecond, func(e SlowQueryEntry) {
		mu.Lock()
		logged = append(logged, e)
		mu.Unlock()
	})
	src := "//manager//employee/name"
	res, err := db.QueryContext(context.Background(), src, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("%d slow entries, want 1", n)
	}
	e := logged[0]
	if e.Pattern == "" || e.Fingerprint == "" {
		t.Fatalf("entry missing identity: %+v", e)
	}
	if e.Method != MethodDPP || e.Matches != res.Count {
		t.Fatalf("entry: %+v", e)
	}
	if e.Duration < e.OptimizeTime || e.Duration < e.ExecuteTime {
		t.Fatalf("duration %v < parts (%v, %v)", e.Duration, e.OptimizeTime, e.ExecuteTime)
	}
	if e.Trace == nil {
		t.Fatal("slow entry has no operator trace (tracing should auto-enable)")
	}
	if res.Trace == nil {
		t.Fatal("result should carry the trace when the slow log forces tracing")
	}
	if got := db.SlowQueries(); len(got) != 1 || got[0].Fingerprint != e.Fingerprint {
		t.Fatalf("ring: %+v", got)
	}
	if got := db.Metrics().Query.SlowQueries; got != 1 {
		t.Fatalf("slow counter = %d", got)
	}

	// An unreachable threshold logs nothing.
	db.SetSlowQueryLog(time.Hour, nil)
	if _, err := db.QueryContext(context.Background(), src, methodOpts(MethodDPP)); err != nil {
		t.Fatal(err)
	}
	if got := db.SlowQueries(); len(got) != 1 {
		t.Fatalf("hour threshold logged: %d entries", len(got))
	}

	// A zero threshold disables the log, and with it the forced tracing.
	db.SetSlowQueryLog(0, nil)
	res, err = db.QueryContext(context.Background(), src, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.SlowQueries(); len(got) != 1 || res.Trace != nil {
		t.Fatalf("disabled log: %d entries, trace %v", len(got), res.Trace != nil)
	}
}

// TestSlowQueryRingBounded: the in-memory log keeps only the most recent
// entries, oldest first.
func TestSlowQueryRingBounded(t *testing.T) {
	db := openDB(t)
	db.SetSlowQueryLog(time.Nanosecond, nil)
	src := "//manager//employee/name"
	for i := 0; i < 40; i++ {
		if _, err := db.QueryContext(context.Background(), src, methodOpts(MethodDPP)); err != nil {
			t.Fatal(err)
		}
	}
	got := db.SlowQueries()
	if len(got) != 32 {
		t.Fatalf("ring holds %d entries, want 32", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatal("ring not oldest-first")
		}
	}
	if got := db.Metrics().Query.SlowQueries; got != 40 {
		t.Fatalf("slow counter = %d, want 40", got)
	}
}

// TestExplainAnalyzeOutput: EXPLAIN ANALYZE prints the operator tree with
// estimated vs actual rows, drift, call counts and wall time.
func TestExplainAnalyzeOutput(t *testing.T) {
	db := openDB(t)
	out, err := db.ExplainAnalyze(MustParsePattern("//manager//employee/name"), MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"est≈", "actual=", "err=", "batches=", "time=", "IndexScan"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze missing %q:\n%s", want, out)
		}
	}
}

// TestObservabilityConcurrent hammers queries (traced and untraced) against
// concurrent metrics scrapes, slow-log reads and
// threshold flips — the -race correctness test for the whole layer.
func TestObservabilityConcurrent(t *testing.T) {
	db := openDB(t)
	db.SetSlowQueryLog(time.Nanosecond, func(SlowQueryEntry) {})
	src := "//manager//employee/name"
	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				opts := QueryOptions{ExecOptions: ExecOptions{Method: MethodDPP, Trace: i%2 == 0}}
				if _, err := db.QueryContext(context.Background(), src, opts); err != nil {
					errs <- err
					return
				}
				switch i % 3 {
				case 0:
					_ = db.Metrics()
				case 1:
					db.WriteMetrics(&strings.Builder{})
				case 2:
					_ = db.SlowQueries()
				}
				if i == iters/2 && g == 0 {
					db.SetSlowQueryLog(time.Hour, nil)
					db.SetSlowQueryLog(time.Nanosecond, func(SlowQueryEntry) {})
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Query.Queries != goroutines*iters {
		t.Fatalf("queries = %d, want %d", m.Query.Queries, goroutines*iters)
	}
	if m.Query.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiesce", m.Query.InFlight)
	}
}
