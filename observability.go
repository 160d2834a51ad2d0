package sjos

import (
	"fmt"
	"io"
	"sync"
	"time"

	"sjos/internal/exec"
	"sjos/internal/metrics"
	"sjos/internal/pattern"
)

// OpTrace is a plan-shaped per-operator execution trace: wall time per
// iterator phase, Next calls, and actual vs estimated output rows for
// every operator of the executed plan. Produced by Run/QueryContext when
// tracing is enabled (QueryOptions.Trace, or a configured slow-query
// log).
type OpTrace = exec.OpTrace

// MetricsSnapshot is the process-wide query counters' point-in-time copy.
type MetricsSnapshot = metrics.Snapshot

// Metrics is one observability snapshot of a corpus:
// query-level counters and latency quantiles, plus the plan cache's and
// buffer pools' own counters.
type Metrics struct {
	// Query holds queries served, errors, slow queries, the in-flight
	// gauge and the p50/p95/p99 latency quantiles.
	Query MetricsSnapshot
	// Cache is the plan cache's hit/miss/coalesced/eviction counters.
	Cache CacheStats
	// Pool is the buffer pool's page-cache counters, including read
	// retries and checksum failures.
	Pool PoolStats
	// Admission is the admission controller's counters (all zero when no
	// MaxInFlight limit is configured).
	Admission AdmissionStats
	// FaultsInjected counts faults the page file injected, when the store
	// sits on a fault-injecting file (internal/faultfs); 0 otherwise.
	FaultsInjected uint64
	// Content is the store's content-index and compression counters: value
	// probes served, postings blocks decoded, compressed vs raw postings
	// footprint and the document build's string-intern behaviour.
	Content ContentStats
	// Replica holds the corpus replica-routing counters (failovers stay
	// zero with one replica per shard).
	Replica ReplicaMetrics
	// Compactions and WALPages are a corpus write path's store rewrites so
	// far and its log length in pages, summed over its shards (zero without
	// a write path). Per-operation mutation counts and
	// times are in Query.Ingest.
	Compactions int
	WALPages    int
	// RecoveredTxns and RecoverySeconds are what the corpus build replayed
	// from the shards' write-ahead logs and how long that took (see
	// CorpusIngestStats); zero when every log was empty.
	RecoveredTxns   int
	RecoverySeconds float64
}

// ReplicaMetrics is the corpus's replica-routing counters.
type ReplicaMetrics struct {
	// Failovers counts shard queries re-issued on another replica because
	// the previous one returned an error.
	Failovers uint64
	// Suspect is the number of replicas currently in a degraded routing
	// state (suspect or probation).
	Suspect int
}

// writeMetricsText renders one Metrics snapshot in the Prometheus text
// exposition format (see Corpus.WriteMetrics).
func writeMetricsText(w io.Writer, m Metrics) {
	m.Query.WriteText(w, "sjos")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP sjos_%s %s\n# TYPE sjos_%s counter\nsjos_%s %d\n",
			name, help, name, name, v)
	}
	counter("plancache_hits_total", "Plan cache hits.", uint64(m.Cache.Hits))
	counter("plancache_misses_total", "Plan cache misses.", uint64(m.Cache.Misses))
	counter("plancache_coalesced_total", "Optimizations coalesced onto an in-flight run.", uint64(m.Cache.Coalesced))
	counter("plancache_evictions_total", "Plan cache LRU evictions.", uint64(m.Cache.Evictions))
	counter("plancache_invalidations_total", "Cached plans dropped because the statistics changed (a committed write or RebuildStats).", uint64(m.Cache.Invalidations))
	fmt.Fprintf(w, "# HELP sjos_plancache_entries Plans currently cached.\n# TYPE sjos_plancache_entries gauge\nsjos_plancache_entries %d\n", m.Cache.Entries)
	counter("pool_hits_total", "Buffer pool page hits.", m.Pool.Hits)
	counter("pool_misses_total", "Buffer pool page misses.", m.Pool.Misses)
	counter("pool_evictions_total", "Buffer pool page evictions.", m.Pool.Evicted)
	fmt.Fprintf(w, "# HELP sjos_pool_resident_pages Pages resident in the buffer pool.\n# TYPE sjos_pool_resident_pages gauge\nsjos_pool_resident_pages %d\n", m.Pool.Resident)
	counter("page_retries_total", "Page reads retried after transient failures or checksum mismatches.", m.Pool.Retries)
	counter("checksum_failures_total", "Page reads that failed checksum or header verification.", m.Pool.ChecksumFailures)
	counter("admission_queued_total", "Queries that waited for an execution slot.", m.Admission.Queued)
	counter("admission_rejected_total", "Queries shed by admission control (queue full or shutting down).", m.Admission.Rejected)
	counter("faults_injected_total", "Faults injected by the page file (chaos mode; 0 in production).", m.FaultsInjected)
	counter("value_index_probes_total", "Value predicates served by content-index probes instead of scan+filter.", m.Content.ValueProbes)
	counter("postings_blocks_decoded_total", "Compressed postings blocks decoded (tag and value index).", m.Content.BlocksDecoded)
	counter("replica_failovers_total", "Shard queries failed over to another replica after an error.", m.Replica.Failovers)
	fmt.Fprintf(w, "# HELP sjos_replicas_suspect Replicas currently in a degraded routing state (suspect or probation).\n# TYPE sjos_replicas_suspect gauge\nsjos_replicas_suspect %d\n", m.Replica.Suspect)
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP sjos_%s %s\n# TYPE sjos_%s gauge\nsjos_%s %d\n",
			name, help, name, name, v)
	}
	counter("compactions_total", "Store rewrites that dropped dead segments (explicit and automatic).", uint64(m.Compactions))
	gauge("wal_pages", "Write-ahead log length in pages, all shards.", int64(m.WALPages))
	gauge("recovered_transactions", "Logged transactions the last open replayed (from the last base snapshot on), all shards.", int64(m.RecoveredTxns))
	fmt.Fprintf(w, "# HELP sjos_recovery_seconds Time the last open spent reading the write-ahead log and replaying it.\n# TYPE sjos_recovery_seconds gauge\nsjos_recovery_seconds %g\n", m.RecoverySeconds)
	gauge("postings_bytes", "Encoded size of all postings (tag and value index).", int64(m.Content.PostingsBytes))
	gauge("postings_raw_bytes", "Size the same postings would occupy uncompressed.", int64(m.Content.RawPostingsBytes))
	counter("intern_hits_total", "Value intern-table hits during document build.", m.Content.Intern.Hits)
	counter("intern_misses_total", "Value intern-table misses (distinct values) during document build.", m.Content.Intern.Misses)
	gauge("intern_strings", "Distinct values retained by the intern table.", int64(m.Content.Intern.Strings))
	gauge("intern_bytes_saved", "Value bytes deduplicated by interning.", int64(m.Content.Intern.BytesSaved))
}

// SlowQueryEntry describes one query that crossed the slow-query
// threshold: identity (pattern text and renumbering-invariant
// fingerprint), how it ran, and its per-operator trace.
type SlowQueryEntry struct {
	// Time is when the query finished.
	Time time.Time
	// Pattern is the query's tree-pattern text; Fingerprint its canonical
	// shape encoding (shared by all renumberings of the same query).
	Pattern     string
	Fingerprint string
	// Method is the optimization algorithm the query ran with.
	Method Method
	// Duration is the total latency (optimize + execute); OptimizeTime
	// and ExecuteTime split it.
	Duration     time.Duration
	OptimizeTime time.Duration
	ExecuteTime  time.Duration
	// Matches is the number of results produced; CachedPlan whether the
	// plan came from the plan cache.
	Matches    int
	CachedPlan bool
	// ValueProbes is how many of the query's leaves ran as value-index
	// probes (predicate pushdown) rather than scan+filter.
	ValueProbes int
	// Trace is the query's per-operator execution trace.
	Trace *OpTrace
	// Error and Stack are set only for entries recording a recovered
	// panic: the typed error's message and the goroutine stack captured at
	// panic time. Both are empty for ordinary slow queries.
	Error string
	Stack string
}

// slowRingCap bounds the in-memory log of recent slow queries.
const slowRingCap = 32

// slowLog is the service-shared slow-query configuration and ring buffer.
type slowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	fn        func(SlowQueryEntry)
	ring      []SlowQueryEntry // oldest first
}

func (l *slowLog) config() (time.Duration, func(SlowQueryEntry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.threshold, l.fn
}

func (l *slowLog) record(e SlowQueryEntry) {
	l.mu.Lock()
	if len(l.ring) == slowRingCap {
		copy(l.ring, l.ring[1:])
		l.ring = l.ring[:slowRingCap-1]
	}
	l.ring = append(l.ring, e)
	l.mu.Unlock()
}

func (l *slowLog) entries() []SlowQueryEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQueryEntry, len(l.ring))
	copy(out, l.ring)
	return out
}

// maybeLogSlow applies the slow-query policy to one finished query.
func (s *service) maybeLogSlow(pat *Pattern, method Method, thr time.Duration, fn func(SlowQueryEntry), optTime, execTime time.Duration, matches int, stats ExecStats, trace *OpTrace, cached bool) {
	total := optTime + execTime
	if thr <= 0 || total < thr {
		return
	}
	fp, _ := pattern.Fingerprint(pat)
	e := SlowQueryEntry{
		Time:         time.Now(),
		Pattern:      pat.String(),
		Fingerprint:  fp,
		Method:       method,
		Duration:     total,
		OptimizeTime: optTime,
		ExecuteTime:  execTime,
		Matches:      matches,
		CachedPlan:   cached,
		ValueProbes:  stats.ValueProbes,
		Trace:        trace,
	}
	s.metrics.SlowQuery()
	s.slow.record(e)
	if fn != nil {
		fn(e)
	}
}
