package sjos_test

// First-k executions: a Limit sizes every batch under it by its demand, so
// these tests hold a limited run to the unlimited run's prefix at the
// boundaries of the readers' doubling ramp, and hold its work to a budget.

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"sjos"
	"sjos/internal/core"
	"sjos/internal/experiments"
)

// firstKQueries are the four Table-1 pers queries: the first-k reads of
// the point_cached workload.
func firstKQueries(tb testing.TB) []experiments.Query {
	tb.Helper()
	var qs []experiments.Query
	for _, q := range experiments.Queries() {
		if q.Dataset == "pers" {
			qs = append(qs, q)
		}
	}
	if len(qs) != 4 {
		tb.Fatalf("%d Table-1 pers queries, want 4", len(qs))
	}
	return qs
}

// TestLimitPrefixRamp runs every limit around the readers' ramp — the
// minimum first refill (16), its doublings and BatchRows (1024) — for every
// method over the Table-1 pers queries and the plan_cold twigs on the
// benchmark's four-shard corpus. A limited run must return exactly the
// unlimited run's first k rows. An unlimited run straight after the
// limited ones, likely on the scratch the last of them returned to the
// pool, must report the same counters as the first unlimited run: a capped
// batch must not leak through the pool.
func TestLimitPrefixRamp(t *testing.T) {
	c := sjos.ServingCorpus(t)
	ctx := context.Background()
	queries := append(firstKQueries(t), experiments.PlanColdQueries()...)
	methods := []sjos.Method{sjos.MethodDP, sjos.MethodDPP, sjos.MethodDPAPEB, sjos.MethodDPAPLD, sjos.MethodFP, sjos.MethodGreedy}
	limits := []int{1, 10, 15, 16, 17, 31, 33, 1023, 1024, 1025, 4097}
	for _, q := range queries {
		pat := sjos.MustParsePattern(q.Source)
		for _, m := range methods {
			opt, err := c.OptimizeContext(ctx, pat, m, 0)
			if err != nil {
				t.Fatalf("%s/%v: optimize: %v", q.ID, m, err)
			}
			full, err := c.Run(ctx, pat, opt.Plan, sjos.QueryOptions{})
			if err != nil {
				t.Fatalf("%s/%v: %v", q.ID, m, err)
			}
			for _, k := range limits {
				res, err := c.Run(ctx, pat, opt.Plan, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: k}})
				if err != nil {
					t.Fatalf("%s/%v limit %d: %v", q.ID, m, k, err)
				}
				n := min(k, full.Count)
				if res.Count != n || !samePrefix(res.Matches, full.Matches[:n]) {
					t.Fatalf("%s/%v limit %d: %d rows, want the first %d of the unlimited run's %d",
						q.ID, m, k, res.Count, n, full.Count)
				}
			}
			// Where the result has more than 4 096 rows, the last limit ended on a
			// one-row root batch.
			again, err := c.Run(ctx, pat, opt.Plan, sjos.QueryOptions{})
			if err != nil {
				t.Fatalf("%s/%v after the limits: %v", q.ID, m, err)
			}
			if again.Stats != full.Stats {
				t.Fatalf("%s/%v: unlimited run after the limits reports %+v, a fresh one %+v",
					q.ID, m, again.Stats, full.Stats)
			}
		}
	}
}

// samePrefix reports whether two corpus results hold the same rows in the
// same order.
func samePrefix(got, want []sjos.CorpusMatch) bool {
	return slices.EqualFunc(got, want, func(g, w sjos.CorpusMatch) bool {
		return g.DocID == w.DocID && g.Doc == w.Doc && slices.Equal(g.Nodes, w.Nodes)
	})
}

// limitWorkBudget bounds the index postings one limit-10 execution of a
// Table-1 pers query scans on the benchmark corpus. With full first batches
// they scanned 5 120-17 596 (DPAP-EB and FP plans alike); sized by the
// demand, 112-1 632.
const limitWorkBudget = 4096

// TestLimitWorkBudget is the regression guard for demand-sized batches: a
// first-k query scans postings in proportion to k, not to BatchRows. It
// runs on one scatter worker, which executes the shards in document order
// and cancels the rest once the prefix is in, so the count is exact. With
// shards running at once, a shard that finishes before the cancellation
// reaches it adds its work too (up to 4 640 postings here). The budget holds
// at two placements of the first document: on shard 1, as the benchmark's
// server places doc-00, and on shard 0.
func TestLimitWorkBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	for _, placement := range []struct {
		prefix string
		shard  int
	}{{"doc-", 1}, {"m-", 0}} {
		c := sjos.ServingCorpusOn(t, placement.prefix, 4, 1)
		if s, _ := c.ShardOf(placement.prefix + "00"); s != placement.shard {
			t.Fatalf("%s00 is on shard %d, want %d", placement.prefix, s, placement.shard)
		}
		for _, q := range firstKQueries(t) {
			pat := sjos.MustParsePattern(q.Source)
			for _, m := range []sjos.Method{sjos.MethodDPAPEB, sjos.MethodFP} {
				opt, err := c.OptimizeContext(ctx, pat, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(ctx, pat, opt.Plan, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: 10}})
				if err != nil {
					t.Fatal(err)
				}
				if res.Count != 10 {
					t.Fatalf("%s on shard %d, %s/%v: %d rows, want 10", placement.prefix, placement.shard, q.ID, m, res.Count)
				}
				if n := res.Stats.ScannedTuples; n > limitWorkBudget {
					t.Errorf("%s on shard %d, %s/%v: limit 10 scanned %d postings, budget %d", placement.prefix, placement.shard, q.ID, m, n, limitWorkBudget)
				}
				t.Logf("first document on shard %d, %s/%v: limit 10 scanned %d postings", placement.shard, q.ID, m, res.Stats.ScannedTuples)
			}
		}
	}
}

// pointWorkBudget bounds the index postings one equality probe of
// point_cached reads on the benchmark corpus. With the ancestor input read
// up to each hit they read 2 257-14 453; positioned from the hit's
// ancestry, at most a few hundred.
const pointWorkBudget = 1024

// TestPointWorkBudget is the regression guard for the join's left-side
// seeks: a point probe reads postings in proportion to its hits, not to the
// ancestor tag's posting list. Every equality-probe shape of point_cached
// (core.ServeMethod's plans, as the server plans them), at the two
// placements of TestLimitWorkBudget.
func TestPointWorkBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: core.ServeMethod}}
	for _, placement := range []struct {
		prefix string
		shard  int
	}{{"doc-", 1}, {"m-", 0}} {
		c := sjos.ServingCorpusOn(t, placement.prefix, 4, 1)
		if s, _ := c.ShardOf(placement.prefix + "00"); s != placement.shard {
			t.Fatalf("%s00 is on shard %d, want %d", placement.prefix, s, placement.shard)
		}
		for k := range pointClasses {
			for _, src := range pointProbes(t, c, k) {
				res, err := c.QueryContext(ctx, src, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Count == 0 {
					t.Fatalf("%s: no rows", src)
				}
				if n := res.Exec.ScannedTuples; n > pointWorkBudget {
					t.Errorf("first document on shard %d, %s: %d rows scanned %d postings, budget %d", placement.shard, src, res.Count, n, pointWorkBudget)
				}
				t.Logf("first document on shard %d, %s: %d rows, %d postings scanned, %d skipped", placement.shard, src, res.Count, res.Exec.ScannedTuples, res.Exec.SkippedTuples)
			}
		}
	}
}

// TestTracedRunReadsLikeUntraced holds a traced execution (ExplainAnalyze's
// count-only run) to the path an untraced one takes: on every shape of
// point_cached the two scan and skip the same postings, and the trace's
// per-operator skips add up to the execution's.
func TestTracedRunReadsLikeUntraced(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	c := sjos.ServingCorpus(t)
	type shape struct {
		src   string
		limit int
	}
	shapes := []shape{{`//employee[salary>118000]/name`, 0}, {`//manager/name`, 0}}
	for k := range pointClasses {
		for _, src := range pointProbes(t, c, k) {
			shapes = append(shapes, shape{src, 0})
		}
	}
	for _, q := range firstKQueries(t) {
		shapes = append(shapes, shape{q.Source, 10})
	}
	var skipped func(tr *sjos.OpTrace) int64
	skipped = func(tr *sjos.OpTrace) int64 {
		n := tr.Skipped
		for _, c := range tr.Children {
			n += skipped(c)
		}
		return n
	}
	for _, s := range shapes {
		pat := sjos.MustParsePattern(s.src)
		opt, err := c.OptimizeContext(ctx, pat, core.ServeMethod, 0)
		if err != nil {
			t.Fatal(err)
		}
		run := func(trace bool) *sjos.CorpusRunResult {
			res, err := c.Run(ctx, pat, opt.Plan, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: s.limit, Trace: trace}, CountOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain, traced := run(false), run(true)
		if plain.Stats.ScannedTuples != traced.Stats.ScannedTuples || plain.Stats.SkippedTuples != traced.Stats.SkippedTuples {
			t.Errorf("%s: untraced scanned %d and skipped %d postings, traced %d and %d", s.src,
				plain.Stats.ScannedTuples, plain.Stats.SkippedTuples, traced.Stats.ScannedTuples, traced.Stats.SkippedTuples)
		}
		if n := skipped(traced.Trace); n != int64(traced.Stats.SkippedTuples) {
			t.Errorf("%s: the trace's operators skipped %d postings, the execution %d", s.src, n, traced.Stats.SkippedTuples)
		}
	}
}
