// Layer lanes of the root package: the ablations (DESIGN.md A1, A2, A4), the
// plan cache, the value index, plan_cold execution and first-k execution.
// The paper's tables and figures are regenerated by `xqbench
// table1|table2|table3|figure7|figure8`, not here.
package sjos_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"sjos"
	"sjos/internal/experiments"
	"sjos/internal/plan"
)

// mustDataset returns the cached benchmark data set.
func mustDataset(b *testing.B, name string, fold int) *sjos.Corpus {
	b.Helper()
	db, err := experiments.Dataset(name, fold)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func mustPattern(b *testing.B, q experiments.Query) *sjos.Pattern {
	b.Helper()
	pat, err := sjos.ParsePattern(q.Source)
	if err != nil {
		b.Fatal(err)
	}
	return pat
}

// BenchmarkAblationLookahead isolates the Lookahead Rule (DESIGN.md A1):
// DPP vs DPP′ optimization time across all eight queries.
func BenchmarkAblationLookahead(b *testing.B) {
	for _, q := range experiments.Queries() {
		db := mustDataset(b, q.Dataset, 1)
		pat := mustPattern(b, q)
		for _, m := range []sjos.Method{sjos.MethodDPP, sjos.MethodDPPNoLookahead} {
			b.Run(q.ID+"/"+m.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := db.OptimizeContext(context.Background(), pat, m, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTimeToFirstResults measures the paper's §3.4 motivation for FP:
// the latency to the first 10 result tuples for the fully-pipelined plan vs
// a blocking (sort-containing) plan, on the folded Pers data where the full
// result is expensive. Pipelined plans stream immediately; blocking plans
// must complete their sorts before the first tuple appears.
func BenchmarkTimeToFirstResults(b *testing.B) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	db := mustDataset(b, q.Dataset, 10)
	pat := mustPattern(b, q)
	fp, err := db.OptimizeContext(context.Background(), pat, sjos.MethodFP, 0)
	if err != nil {
		b.Fatal(err)
	}
	// The cheapest sort-containing plan from a random sample stands in
	// for "a reasonable blocking plan".
	var blocking *sjos.Plan
	var blockingCost float64
	for seed := int64(0); seed < 40; seed++ {
		r, err := db.BadPlan(pat, 1, seed)
		if err != nil {
			b.Fatal(err)
		}
		if r.Plan.Sorts() > 0 && (blocking == nil || r.Cost < blockingCost) {
			blocking, blockingCost = r.Plan, r.Cost
		}
	}
	if blocking == nil {
		b.Skip("no blocking plan sampled")
	}
	for _, v := range []struct {
		label string
		plan  *sjos.Plan
	}{{"pipelined", fp.Plan}, {"blocking", blocking}} {
		b.Run(v.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ms, _, err := execLimit(db, pat, v.plan, 10)
				if err != nil {
					b.Fatal(err)
				}
				if len(ms) != 10 {
					b.Fatalf("got %d tuples", len(ms))
				}
			}
		})
	}
}

// BenchmarkAblationEstimator isolates estimation error (DESIGN.md A2): it
// executes the plan the optimizer picks under positional-histogram
// statistics vs the plan picked under exact (oracle) statistics.
func BenchmarkAblationEstimator(b *testing.B) {
	for _, q := range experiments.Queries() {
		db := mustDataset(b, q.Dataset, 1)
		pat := mustPattern(b, q)
		hist, err := db.OptimizeContext(context.Background(), pat, sjos.MethodDPP, 0)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := db.OptimizeWithExactStats(pat, sjos.MethodDPP, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			label string
			plan  *sjos.Plan
		}{{"histogram", hist.Plan}, {"oracle", oracle.Plan}} {
			b.Run(q.ID+"/"+v.label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := execCount(db, pat, v.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanCacheColdOptimize measures the optimize phase of the
// representative query without the plan cache: every iteration is an
// OptimizeContext call, a full optimizer search.
func BenchmarkPlanCacheColdOptimize(b *testing.B) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	db := mustDataset(b, q.Dataset, 1)
	pat := sjos.MustParsePattern(q.Source)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.OptimizeContext(context.Background(), pat, sjos.MethodDPP, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "optimize-ns/op")
}

// BenchmarkPlanCacheWarmOptimize is the cached counterpart: after one
// priming run, every iteration's plan comes from the cache. Comparing
// optimize-ns/op against BenchmarkPlanCacheColdOptimize measures the
// cache's speedup (EXPERIMENTS.md records the ratio).
func BenchmarkPlanCacheWarmOptimize(b *testing.B) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	db := mustDataset(b, q.Dataset, 1)
	if _, err := db.QueryContext(context.Background(), q.Source,
		sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, Limit: 1}}); err != nil {
		b.Fatal(err)
	}
	var opt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), q.Source,
			sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, Limit: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if !res.CachedPlan {
			b.Fatal("warm iteration missed the plan cache")
		}
		opt += res.OptimizeTime
	}
	b.ReportMetric(float64(opt.Nanoseconds())/float64(b.N), "optimize-ns/op")
}

// planColdRun executes one plan_cold twig's DPAP-EB plan (what xqserve runs
// on a plan-cache miss) once, count-only, over the benchmark-shaped corpus.
type planColdRun struct {
	id  string
	run func(testing.TB)
}

// planColdRuns plans the eight 12-13-node twigs once and verifies each
// execution's count against the first.
func planColdRuns(tb testing.TB) []planColdRun {
	tb.Helper()
	c := sjos.ServingCorpus(tb)
	ctx := context.Background()
	var runs []planColdRun
	for _, q := range experiments.PlanColdQueries() {
		pat, err := sjos.ParsePattern(q.Source)
		if err != nil {
			tb.Fatal(err)
		}
		opt, err := c.OptimizeContext(ctx, pat, sjos.MethodDPAPEB, 0)
		if err != nil {
			tb.Fatal(err)
		}
		want := -1
		run := func(tb testing.TB) {
			r, err := c.Run(ctx, pat, opt.Plan, sjos.QueryOptions{CountOnly: true})
			if err != nil {
				tb.Fatal(err)
			}
			if want < 0 {
				want = r.Count
			}
			if r.Count != want {
				tb.Fatalf("%s counted %d, want %d", q.ID, r.Count, want)
			}
		}
		run(tb) // pages resident, scratch at working size
		runs = append(runs, planColdRun{q.ID, run})
	}
	return runs
}

// BenchmarkExecPlanColdTwig is the executor layer lane under plan_cold: one
// op is one count-only scatter of a twig's plan, the plan built once outside
// the timer. B/op and allocs/op are what the execution leaves for the
// collector.
func BenchmarkExecPlanColdTwig(b *testing.B) {
	for _, r := range planColdRuns(b) {
		b.Run(r.id, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.run(b)
			}
		})
	}
}

// BenchmarkValueRangeProbe is the access-path lane under plan_cold's
// `salary>$C` leaves: one op is one count-only scatter of the one-node
// pattern over the benchmark-shaped corpus, read either by the value-index
// range probe or by the tag scan and filter, at three bounds that keep 629,
// 184 and 79 of the corpus's salaries. A probe should be no slower than the
// scan at any of them. The limit=10 arms read the first ten rows instead: a
// range probe sorts all of its hits before it serves one, a scan does not.
func BenchmarkValueRangeProbe(b *testing.B) {
	c := sjos.ServingCorpus(b)
	ctx := context.Background()
	for _, bound := range []int{105300, 115300, 118000} {
		pat := sjos.MustParsePattern(fmt.Sprintf("//salary[. > %d]", bound))
		probe := *plan.NewIndexScan(0)
		probe.ValueIndex = true
		want := -1
		for _, lane := range []struct {
			name string
			plan *sjos.Plan
		}{{"probe", &probe}, {"scan", sjos.ScanArm(&probe)}} {
			for _, arm := range []struct {
				suffix string
				opts   sjos.QueryOptions
			}{{"", sjos.QueryOptions{CountOnly: true}}, {"/limit=10", sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: 10}}}} {
				r, err := c.Run(ctx, pat, lane.plan, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				if want < 0 {
					want = r.Count
				}
				wantRows := want
				if arm.opts.Limit > 0 {
					wantRows = min(want, arm.opts.Limit)
				}
				if r.Count != wantRows || (r.Stats.ValueProbes > 0) != (lane.name == "probe") {
					b.Fatalf("bound %d, %s%s: %d rows and %d probes, want %d rows", bound, lane.name, arm.suffix, r.Count, r.Stats.ValueProbes, wantRows)
				}
				b.Run(fmt.Sprintf("bound=%d/%s%s", bound, lane.name, arm.suffix), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := c.Run(ctx, pat, lane.plan, arm.opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkExecFirstK is the executor layer lane under point_cached's
// first-k reads: one op is one limit-10 scatter of a Table-1 pers query's
// DPAP-EB plan over the benchmark-shaped corpus, the plan built once outside
// the timer. postings/op is the index postings the op scanned.
func BenchmarkExecFirstK(b *testing.B) {
	c := sjos.ServingCorpus(b)
	ctx := context.Background()
	opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: 10}}
	for _, q := range firstKQueries(b) {
		pat := sjos.MustParsePattern(q.Source)
		opt, err := c.OptimizeContext(ctx, pat, sjos.MethodDPAPEB, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			postings := 0
			for i := 0; i < b.N; i++ {
				r, err := c.Run(ctx, pat, opt.Plan, opts)
				if err != nil {
					b.Fatal(err)
				}
				if r.Count != 10 {
					b.Fatalf("%s returned %d rows, want 10", q.ID, r.Count)
				}
				postings += r.Stats.ScannedTuples
			}
			b.ReportMetric(float64(postings)/float64(b.N), "postings/op")
		})
	}
}

// Budgets for one steady-state execution of a plan_cold twig. Before
// executions ran on a pooled scratch one cost 3.3-3.8 MB in 1 800-2 400
// objects (reader batches and a 64 KB arena chunk per join and shard);
// measured now: ~45 KB in ~330, plan-cold-5 65-85 KB — its range probe
// decodes its runs into one sorted slice per shard.
const (
	execScratchBytesBudget   = 600 << 10
	execScratchObjectsBudget = 1200
)

// TestExecScratchAllocs is the regression guard for the pooled scratch: what
// a repeated execution allocates is per-operator headers and buffer-pool
// bookkeeping, not its working memory.
func TestExecScratchAllocs(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("allocation counting is noisy under -short harnesses, and the race detector's sync.Pool forgets")
	}
	for _, r := range planColdRuns(t) {
		const n = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects := testing.AllocsPerRun(n, func() { r.run(t) })
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / (n + 1) // AllocsPerRun warms up with one more
		if bytes > execScratchBytesBudget || objects > execScratchObjectsBudget {
			t.Errorf("%s: %d B and %.0f objects per execution, budgets %d B and %d", r.id, bytes, objects, execScratchBytesBudget, execScratchObjectsBudget)
		}
		t.Logf("%s: %d B, %.0f objects per execution", r.id, bytes, objects)
	}
}

// BenchmarkContentIndex measures value-index predicate pushdown against
// scan+filter on selective-predicate queries over the DBLP data set. The
// probe lane executes the optimizer-chosen plan (ValueIndexScan leaves), the
// scan lane the same plan's scan arm (IndexScan leaves, same join order),
// both count-only, isolating the access-path difference from match
// materialisation. The probe lane should win by >=1.5x.
func BenchmarkContentIndex(b *testing.B) {
	queries := []struct {
		name string
		src  string
	}{
		{"range-year", `//article[year < 1975]/title`},
		{"eq-booktitle", `//inproceedings[booktitle = "conf-7"]/author`},
	}
	ctx := context.Background()
	for _, q := range queries {
		pat, err := sjos.ParsePattern(q.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, fold := range []int{1, 10} {
			db := mustDataset(b, "dblp", fold)
			opt, err := db.OptimizeContext(context.Background(), pat, sjos.MethodDPP, 0)
			if err != nil {
				b.Fatal(err)
			}
			want := -1
			for _, lane := range []struct {
				name string
				plan *sjos.Plan
			}{{"probe", opt.Plan}, {"scan", sjos.ScanArm(opt.Plan)}} {
				res, err := db.Run(ctx, pat, lane.plan, sjos.QueryOptions{CountOnly: true})
				if err != nil {
					b.Fatal(err)
				}
				if want == -1 {
					want = res.Count
				} else if res.Count != want {
					b.Fatalf("%s found %d matches, want %d", lane.name, res.Count, want)
				}
				if probes := res.Stats.ValueProbes; (probes > 0) != (lane.name == "probe") {
					b.Fatalf("%s lane ran %d value probes", lane.name, probes)
				}
				b.Run(fmt.Sprintf("%s/fold=%d/%s", q.name, fold, lane.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r, err := db.Run(ctx, pat, lane.plan, sjos.QueryOptions{CountOnly: true})
						if err != nil {
							b.Fatal(err)
						}
						if r.Count != want {
							b.Fatalf("%s counted %d, want %d", lane.name, r.Count, want)
						}
					}
				})
			}
		}
	}
}

// spreadValues picks n values of a `//x/name` path spread over its value
// range, ranked by how many rows hold each value and then by value: the
// middle of each of n equal slots — the benchmark's point_cached picks,
// without their seeded jitter.
func spreadValues(tb testing.TB, c *sjos.Corpus, path string, n int) []string {
	tb.Helper()
	tally := sjos.TallyValues(tb, c, path)
	ranked := make([]string, 0, len(tally))
	for v := range tally {
		ranked = append(ranked, v)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if tally[ranked[i]].Rows != tally[ranked[j]].Rows {
			return tally[ranked[i]].Rows < tally[ranked[j]].Rows
		}
		return ranked[i] < ranked[j]
	})
	slot := len(ranked) / n
	out := make([]string, n)
	for k := range out {
		out[k] = ranked[k*slot+slot/2]
	}
	return out
}

// BenchmarkPointCachedMix is point_cached in process: one op is one
// QueryContext of a request of the benchmark's 32-request mix (DPAP-EB, the
// plan cached) over the benchmark-shaped corpus, cycling through one class
// of it or through the whole mix. pruned/op is the shards it skipped.
func BenchmarkPointCachedMix(b *testing.B) {
	c := sjos.ServingCorpus(b)
	ctx := context.Background()
	type request struct {
		src  string
		opts sjos.QueryOptions
	}
	dpapeb := sjos.ExecOptions{Method: sjos.MethodDPAPEB}
	classes := map[string][]request{}
	for _, class := range []struct {
		name, path, probe string
		n                 int
	}{
		{"employee", `//employee/name`, `//employee[name=%q]`, 9},
		{"department", `//department/name`, `//department[name=%q]`, 9},
		{"manager", `//manager/name`, `//manager[name=%q]//employee/name`, 8},
	} {
		for _, v := range spreadValues(b, c, class.path, class.n) {
			classes[class.name] = append(classes[class.name], request{fmt.Sprintf(class.probe, v), sjos.QueryOptions{ExecOptions: dpapeb}})
		}
	}
	classes["range"] = []request{{`//employee[salary>118000]/name`, sjos.QueryOptions{ExecOptions: dpapeb}}}
	limited := dpapeb
	limited.Limit = 10
	for _, q := range firstKQueries(b) {
		classes["firstk"] = append(classes["firstk"], request{q.Source, sjos.QueryOptions{ExecOptions: limited}})
	}
	classes["count"] = []request{{`//manager/name`, sjos.QueryOptions{ExecOptions: dpapeb, CountOnly: true}}}
	var mix []request
	for _, name := range []string{"employee", "department", "manager", "range", "firstk", "count"} {
		mix = append(mix, classes[name]...)
	}
	classes["mix"] = mix
	for _, r := range mix { // plans cached, pages resident
		if _, err := c.QueryContext(ctx, r.src, r.opts); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"employee", "department", "manager", "range", "firstk", "count", "mix"} {
		reqs := classes[name]
		b.Run("class="+name, func(b *testing.B) {
			b.ReportAllocs()
			before := c.Metrics().Replica.ShardsPruned
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				if _, err := c.QueryContext(ctx, r.src, r.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Metrics().Replica.ShardsPruned-before)/float64(b.N), "pruned/op")
		})
	}
}

// BenchmarkShardPruneCheck is the cost the pruning check adds to a
// plan_cold twig: one op decides every populated shard of the
// benchmark-shaped corpus for one of the eight twigs, as the scatter does
// before dispatch. Compare with BenchmarkExecPlanColdTwig.
func BenchmarkShardPruneCheck(b *testing.B) {
	c := sjos.ServingCorpus(b)
	for _, q := range experiments.PlanColdQueries() {
		pat := sjos.MustParsePattern(q.Source)
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sjos.PrunedShards(c, pat)
			}
		})
	}
}
