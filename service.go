package sjos

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sjos/internal/admission"
	"sjos/internal/core"
	"sjos/internal/cost"
	"sjos/internal/exec"
	"sjos/internal/metrics"
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/plancache"
	"sjos/internal/storage"
)

// CacheStats is a snapshot of the plan cache's behaviour counters.
type CacheStats = plancache.Stats

// service is the query-service state behind a Corpus — exactly one per
// corpus, never per shard or replica: the statistics queries are planned
// against (the merged view over every shard's members, replaceable by
// RebuildStats and re-merged after every committed mutation), the plan
// cache, metrics, the slow-query log, admission control and the write lock.
type service struct {
	mu           sync.RWMutex
	stats        core.StatsSource
	statsVersion uint64

	cache *plancache.Cache[cachedPlan]

	// metrics accumulates process-wide query counters; slow holds the
	// slow-query log configuration and ring buffer.
	metrics metrics.Registry
	slow    slowLog

	// admit bounds concurrent executions (nil = unlimited), per corpus.
	admit *admission.Controller

	// wmu is the corpus's write lock: it serialises mutations, RebuildStats
	// and every other access to the write-path state of the engines under
	// this service (queries never take it).
	wmu sync.Mutex

	// testHookRun, when non-nil, runs inside every read's recovery scope —
	// white-box tests use it to inject panics at the query boundary.
	testHookRun func()
}

// cachedPlan is one cache entry. The plan is stored in the fingerprint's
// canonical node numbering so one entry serves every renumbering of the
// same query shape; hits remap it back into the caller's numbering. text is
// stored by the entry's first hit: a miss renders the plan for its own
// response only, so an entry that no query reuses keeps no text. Entries
// are copied out of the cache and read concurrently, hence the shared
// atomic pointer.
type cachedPlan struct {
	plan     *plan.Node
	cost     float64
	algo     string
	counters core.Counters
	text     *atomic.Pointer[planText]
}

// planText is a plan rendered for the numbering whose canonical renumbering
// is canon: tags and predicates are in the fingerprint, so a hit with the
// same canon would render the same bytes.
type planText struct {
	text  string
	canon []int
}

// newService builds a corpus's service around an admission controller of
// the given bounds. The corpus installs the statistics (setStats) once its
// engines exist.
func newService(maxInFlight, queueDepth int) *service {
	return &service{
		cache: plancache.New[cachedPlan](0),
		admit: admission.New(maxInFlight, queueDepth),
	}
}

// snapshot returns the current statistics and their version under one lock,
// so an optimization run sees a consistent (stats, version) pair even if
// RebuildStats runs concurrently.
func (s *service) snapshot() (core.StatsSource, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats, s.statsVersion
}

// setStats replaces the statistics and makes every cached plan unreachable:
// the version bump changes all future cache keys, and Clear drops the now
// dead entries immediately rather than waiting for LRU pressure.
func (s *service) setStats(stats core.StatsSource) {
	s.mu.Lock()
	s.stats = stats
	s.statsVersion++
	s.mu.Unlock()
	s.cache.Clear()
}

// optimizePattern is the cached optimize step behind QueryContext and
// XQueryContext: structurally equivalent patterns (same shape, tags, axes,
// predicates — regardless of node numbering) share one cache entry per
// (method, statistics version). Concurrent misses on the same key run
// the optimizer once. It also returns the plan's text (Plan.Format against
// pat), which a hit in the numbering of the entry's first hit reuses. The
// boolean reports whether the plan came from the cache (or from a coalesced
// in-flight optimization) rather than a fresh optimizer run.
func (s *service) optimizePattern(ctx context.Context, pat *Pattern, pe core.ProbeEligibility, m Method) (*OptimizeResult, string, bool, error) {
	stats, ver := s.snapshot()
	fp, canon := pattern.Fingerprint(pat)
	k := plancache.Key{Fingerprint: fp, Method: int(m), StatsVersion: ver}
	cp, cached, err := s.cache.GetOrCompute(ctx, k, func() (cachedPlan, error) {
		res, err := s.search(ctx, pat, stats, m, pe)
		if err != nil {
			return cachedPlan{}, err
		}
		return cachedPlan{
			plan:     plan.Remap(res.Plan, canon),
			cost:     res.Cost,
			algo:     res.Algorithm,
			counters: res.Counters,
			text:     new(atomic.Pointer[planText]),
		}, nil
	})
	if err != nil {
		return nil, "", false, err
	}
	// Remap the canonical plan into this caller's node numbering. The
	// remap deep-copies, so cached plans are never shared mutably.
	inv := pattern.InversePermutation(canon)
	res := &OptimizeResult{
		Plan:      plan.Remap(cp.plan, inv),
		Cost:      cp.cost,
		Algorithm: cp.algo,
		Counters:  cp.counters,
	}
	if !cached {
		return res, res.Plan.Format(pat), false, nil
	}
	pt := cp.text.Load()
	if pt != nil && slices.Equal(canon, pt.canon) {
		return res, pt.text, true, nil
	}
	text := res.Plan.Format(pat)
	if pt == nil {
		cp.text.CompareAndSwap(nil, &planText{text: text, canon: canon})
	}
	return res, text, true, nil
}

// search is the metered optimizer run behind optimizePattern: only the
// leader of a cache miss gets here, so the planning series count searches
// done, not queries served.
func (s *service) search(ctx context.Context, pat *Pattern, stats core.StatsSource, m Method, pe core.ProbeEligibility) (*OptimizeResult, error) {
	t0 := time.Now()
	res, err := optimizeWith(ctx, pat, stats, m, 0, pe)
	if err == nil {
		s.metrics.Optimized(time.Since(t0), res.Counters.PlansConsidered)
	}
	return res, err
}

// optimizeWith is where every plan comes from: one optimizer pass against an
// explicit statistics snapshot, priced with the one cost model. pe lets the
// estimator offer value-index probes for eligible predicated leaves.
func optimizeWith(ctx context.Context, pat *Pattern, stats core.StatsSource, m Method, te int, pe core.ProbeEligibility) (*OptimizeResult, error) {
	est, err := core.NewIndexedEstimator(pat, stats, pe)
	if err != nil {
		return nil, err
	}
	return core.Optimize(ctx, pat, est, cost.DefaultModel(), m, &core.Options{Te: te})
}

// ExecOptions is the execution-tuning surface of QueryOptions. Run, which
// executes an already-chosen plan, reads Limit and Trace and ignores Method,
// which only applies where a plan is being chosen (QueryContext and
// XQueryContext; DPAP-EB there runs at its default bound, the number of
// pattern edges). The zero value optimizes with DP and executes without a
// limit.
type ExecOptions struct {
	// Method selects the optimization algorithm (zero value: MethodDP).
	// Ignored by Run, which executes an already-chosen plan.
	Method Method
	// Limit > 0 stops execution after that many matches — the online
	// querying mode motivating the FP algorithm (§3.4). 0 means all.
	Limit int
	// Trace enables per-operator instrumentation: wall time, batches and
	// output rows per plan operator, reported in the result. It costs two
	// clock reads per operator per batch of up to 1024 rows; disabled
	// tracing adds no per-operator work at all.
	Trace bool
}

// write is the one mutation envelope. Mutations pass the same admission
// gate as queries — MaxInFlight bounds them and Drain refuses them, so write
// endpoints shed load and shut down exactly like the read path — then take
// the corpus's write lock. mutate runs the commit protocol on eng (nil or
// without a log: there is no write path). Whenever it published a new
// snapshot — even if it then failed, as a post-commit compaction can —
// publish lets the corpus follow it: re-merge the statistics, update its
// directory. A mutation that succeeds is timed under op's name
// (sjos_ingest_seconds).
func (s *service) write(eng *engine, op storage.WALOp, mutate func() error, publish func()) error {
	if eng == nil || eng.wal == nil {
		return ErrNoWAL
	}
	t0 := time.Now()
	release, err := s.admit.Acquire(context.Background())
	if err != nil {
		return err
	}
	defer release()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if eng.broken != nil {
		return eng.brokenErr()
	}
	before := eng.view()
	err = mutate()
	if eng.view() != before {
		publish()
	}
	if err == nil {
		s.metrics.Ingested(op.String(), time.Since(t0))
	}
	return err
}

// recordPanic folds one recovered panic into the observability surfaces:
// the metrics counter and a slow-query ring entry carrying the stack, so
// the crash-that-wasn't is diagnosable after the fact.
func (s *service) recordPanic(pat *Pattern, perr error) {
	s.metrics.RecoveredPanic()
	e := SlowQueryEntry{
		Time:  time.Now(),
		Error: perr.Error(),
	}
	var pe *exec.PanicError
	if errors.As(perr, &pe) {
		e.Stack = string(pe.Stack)
	}
	if pat != nil {
		e.Pattern = pat.String()
		fp, _ := pattern.Fingerprint(pat)
		e.Fingerprint = fp
	}
	s.slow.record(e)
}

// QueryOptions tunes one QueryContext, XQueryContext or Run call. The zero
// value optimizes with DP, executes without a limit, and uses the plan
// cache. All ExecOptions fields apply to a query: the optimizer fields steer
// the (cached) plan search, the execution fields the run of the chosen plan.
// Run executes a plan it is given, so it ignores Method.
type QueryOptions struct {
	ExecOptions
	// CountOnly leaves the rows out: the result carries Count and the
	// statistics and trace, and no Segments or Matches. Without a Limit the
	// shards count instead of collecting, so no row is materialised or
	// gathered. XQueryContext rejects it.
	CountOnly bool
}

// RunOptions is QueryOptions under the name Run's options went by when they
// were a type of their own.
//
// Deprecated: use QueryOptions.
type RunOptions = QueryOptions

// planned is what every planned query reports.
type planned struct {
	// Plan is the executed plan (one plan, every shard of a corpus);
	// PlanText its rendering.
	Plan     *Plan
	PlanText string
	// EstCost is the optimizer's estimate for the plan.
	EstCost float64
	// Algorithm names the algorithm that produced the plan — for a client of
	// a server whose default method it cannot see.
	Algorithm string
	// CachedPlan reports whether the plan came from the plan cache (or a
	// coalesced in-flight optimization) instead of a fresh optimizer run.
	CachedPlan bool
	// OptimizeTime and ExecuteTime split the total latency the way the
	// paper's Table 1 reports it; for a corpus ExecuteTime covers the whole
	// scatter-gather.
	OptimizeTime time.Duration
	ExecuteTime  time.Duration
	// PlansConsidered is the optimizer's search effort (Table 2).
	PlansConsidered int
	// Exec reports the physical work done (merged over every shard
	// execution of a corpus).
	Exec ExecStats
	// Trace is the per-operator execution trace (nil unless
	// QueryOptions.Trace was set or a slow-query log is active).
	Trace *OpTrace
}
