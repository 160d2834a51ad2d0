// Package metrics is the observability registry behind sjos.Corpus.Metrics()
// (one per corpus): lock-free counters for queries served, errors,
// slow queries and in-flight executions, plus a fixed-bucket exponential
// latency histogram giving p50/p95/p99 without allocation on the hot path.
//
// Every counter is an atomic; Observe costs a handful of atomic adds, so
// the registry can sit on the Run hot path of a service handling heavy
// concurrent traffic without a lock becoming the bottleneck.
package metrics

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// numBuckets is the latency histogram resolution: bucket i covers latencies
// up to 1µs·2^i, so 32 buckets span 1µs .. ~71min with the last bucket
// absorbing everything beyond.
const numBuckets = 32

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// bucketFor returns the index of the bucket a latency falls into.
func bucketFor(d time.Duration) int {
	for i := 0; i < numBuckets-1; i++ {
		if d <= bucketBound(i) {
			return i
		}
	}
	return numBuckets - 1
}

// Registry accumulates query-level counters for one database process. The
// zero value is ready to use; all methods are safe for concurrent use.
type Registry struct {
	queries  atomic.Uint64
	errors   atomic.Uint64
	slow     atomic.Uint64
	inFlight atomic.Int64
	batches  atomic.Uint64
	skipped  atomic.Uint64
	panics   atomic.Uint64

	optCount atomic.Uint64
	optSum   atomic.Int64 // nanoseconds
	plans    atomic.Uint64
	ingest   [len(ingestOps)]struct {
		count atomic.Uint64
		sum   atomic.Int64 // nanoseconds
	}

	latCount atomic.Uint64
	latSum   atomic.Int64 // nanoseconds
	buckets  [numBuckets]atomic.Uint64
}

// QueryStarted marks one execution as in flight.
func (r *Registry) QueryStarted() { r.inFlight.Add(1) }

// QueryFinished records the completion of an execution started with
// QueryStarted: it decrements the in-flight gauge, counts the query (and
// the error, if any) and folds the latency into the histogram.
func (r *Registry) QueryFinished(d time.Duration, err error) {
	r.inFlight.Add(-1)
	r.queries.Add(1)
	if err != nil {
		r.errors.Add(1)
	}
	r.latCount.Add(1)
	r.latSum.Add(int64(d))
	r.buckets[bucketFor(d)].Add(1)
}

// SlowQuery counts one query that crossed the slow-query threshold.
func (r *Registry) SlowQuery() { r.slow.Add(1) }

// RecoveredPanic counts one panic recovered at a query boundary and
// converted into a typed error.
func (r *Registry) RecoveredPanic() { r.panics.Add(1) }

// Optimized records one optimizer search — a plan-cache miss or an uncached
// run; hits and coalesced waits search nothing — with the time it took and
// the alternative plans it considered (the paper's Table 2 effort counter).
func (r *Registry) Optimized(d time.Duration, plansConsidered int) {
	r.optCount.Add(1)
	r.optSum.Add(int64(d))
	r.plans.Add(uint64(plansConsidered))
}

// ingestOps are the document mutations the write path times, in the order
// they are exported.
var ingestOps = [...]string{"insert", "replace", "delete"}

// Ingested records one committed document mutation of the named kind
// (insert, replace or delete; anything else is not a document mutation and
// is ignored) and the time it spent in the write envelope.
func (r *Registry) Ingested(op string, d time.Duration) {
	for i, name := range ingestOps {
		if name == op {
			r.ingest[i].count.Add(1)
			r.ingest[i].sum.Add(int64(d))
		}
	}
}

// ExecBatched folds one execution's batched-path counters into the
// registry: batches driven through the plan root and index postings
// bypassed by skip-ahead seeks.
func (r *Registry) ExecBatched(batches, skipped int) {
	if batches > 0 {
		r.batches.Add(uint64(batches))
	}
	if skipped > 0 {
		r.skipped.Add(uint64(skipped))
	}
}

// Snapshot is a consistent-enough point-in-time copy of the registry: each
// counter is read atomically (the set is not read under one lock, which is
// fine for monitoring).
type Snapshot struct {
	// Queries counts completed executions; Errors the subset that failed.
	Queries, Errors uint64
	// SlowQueries counts executions reported to the slow-query log.
	SlowQueries uint64
	// InFlight is the number of executions currently running.
	InFlight int64
	// Batches counts NextBatch calls driven through plan roots; Skipped
	// counts index postings bypassed by skip-ahead seeks. Both stay 0
	// while every query runs tuple-at-a-time.
	Batches, Skipped uint64
	// RecoveredPanics counts panics recovered at query boundaries (each one
	// is a bug that became a typed error instead of a crash).
	RecoveredPanics uint64
	// Optimizations counts optimizer searches run for queries (plan-cache
	// misses and uncached runs), OptimizeTime their summed duration and
	// PlansConsidered their summed search effort.
	Optimizations   uint64
	OptimizeTime    time.Duration
	PlansConsidered uint64
	// Ingest holds, per kind of document mutation (insert, replace, delete),
	// how many were committed and the time they spent in the write envelope.
	Ingest [len(ingestOps)]IngestSnapshot
	// TotalTime is the summed latency of all completed executions.
	TotalTime time.Duration
	// P50, P95 and P99 are latency quantiles (bucket upper bounds of the
	// exponential histogram, so they are upper estimates within 2×).
	P50, P95, P99 time.Duration

	buckets [numBuckets]uint64
}

// IngestSnapshot is one kind of document mutation's counters.
type IngestSnapshot struct {
	Op    string
	Count uint64
	Time  time.Duration
}

// Snapshot captures the current counters and derives the quantiles.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Queries:         r.queries.Load(),
		Errors:          r.errors.Load(),
		SlowQueries:     r.slow.Load(),
		InFlight:        r.inFlight.Load(),
		Batches:         r.batches.Load(),
		Skipped:         r.skipped.Load(),
		RecoveredPanics: r.panics.Load(),
		Optimizations:   r.optCount.Load(),
		OptimizeTime:    time.Duration(r.optSum.Load()),
		PlansConsidered: r.plans.Load(),
		TotalTime:       time.Duration(r.latSum.Load()),
	}
	for i := range s.buckets {
		s.buckets[i] = r.buckets[i].Load()
	}
	for i, op := range ingestOps {
		s.Ingest[i] = IngestSnapshot{Op: op, Count: r.ingest[i].count.Load(), Time: time.Duration(r.ingest[i].sum.Load())}
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile returns the latency below which fraction q of observations fall
// (the upper bound of the histogram bucket containing the q-th
// observation). 0 is returned when nothing has been observed.
func (s Snapshot) Quantile(q float64) time.Duration {
	var total uint64
	for _, c := range s.buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range s.buckets {
		cum += c
		if cum > rank {
			return bucketBound(i)
		}
	}
	return bucketBound(numBuckets - 1)
}

// WriteText renders the snapshot in the Prometheus text exposition format
// under the given metric-name prefix (e.g. "sjos").
func (s Snapshot) WriteText(w io.Writer, prefix string) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	counter("queries_total", "Completed query executions.", s.Queries)
	counter("query_errors_total", "Query executions that returned an error.", s.Errors)
	counter("slow_queries_total", "Queries that crossed the slow-query threshold.", s.SlowQueries)
	counter("exec_batches_total", "Tuple batches driven through plan roots.", s.Batches)
	counter("exec_skipped_tuples_total", "Index postings bypassed by skip-ahead seeks.", s.Skipped)
	counter("recovered_panics_total", "Panics recovered at query boundaries.", s.RecoveredPanics)
	counter("plans_considered_total", "Alternative plans costed by optimizer searches (plan-cache misses only).", s.PlansConsidered)
	fmt.Fprintf(w, "# HELP %s_optimize_seconds Optimizer search time (plan-cache misses only).\n# TYPE %s_optimize_seconds summary\n%s_optimize_seconds_sum %g\n%s_optimize_seconds_count %d\n",
		prefix, prefix, prefix, s.OptimizeTime.Seconds(), prefix, s.Optimizations)
	fmt.Fprintf(w, "# HELP %s_ingest_seconds Time committed document mutations spent in the write envelope (admission, stage, WAL append, apply, publish; parsing excluded).\n# TYPE %s_ingest_seconds summary\n", prefix, prefix)
	for _, in := range s.Ingest {
		fmt.Fprintf(w, "%s_ingest_seconds_sum{op=%q} %g\n%s_ingest_seconds_count{op=%q} %d\n",
			prefix, in.Op, in.Time.Seconds(), prefix, in.Op, in.Count)
	}
	fmt.Fprintf(w, "# HELP %s_queries_in_flight Query executions currently running.\n# TYPE %s_queries_in_flight gauge\n%s_queries_in_flight %d\n",
		prefix, prefix, prefix, s.InFlight)
	fmt.Fprintf(w, "# HELP %s_query_latency_seconds Query latency distribution.\n# TYPE %s_query_latency_seconds summary\n", prefix, prefix)
	for _, q := range []struct {
		label string
		v     time.Duration
	}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
		fmt.Fprintf(w, "%s_query_latency_seconds{quantile=%q} %g\n", prefix, q.label, q.v.Seconds())
	}
	fmt.Fprintf(w, "%s_query_latency_seconds_sum %g\n", prefix, s.TotalTime.Seconds())
	fmt.Fprintf(w, "%s_query_latency_seconds_count %d\n", prefix, s.Queries)
}
