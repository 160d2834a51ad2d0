// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// table and figure. Run them all with
//
//	go test -bench=. -benchmem
//
// Mapping (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured comparison):
//
//	BenchmarkTable1Optimize / BenchmarkTable1Execute  — Table 1
//	BenchmarkTable1BadPlan                            — Table 1 "Bad Plan"
//	BenchmarkTable2SearchEffort                       — Table 2
//	BenchmarkTable3Folding                            — Table 3
//	BenchmarkFigure7TeSweep / BenchmarkFigure8TeSweep — Figures 7 and 8
//	BenchmarkAblation*                                — ablations (DESIGN.md A1-A3)
package sjos_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sjos"
	"sjos/internal/experiments"
)

// mustDataset returns the cached benchmark data set.
func mustDataset(b *testing.B, name string, fold int) *sjos.Database {
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

// BenchmarkTable1Optimize measures the optimization-time columns of
// Table 1: every query × algorithm.
func BenchmarkTable1Optimize(b *testing.B) {
	for _, q := range experiments.Queries() {
		db := mustDataset(b, q.Dataset, 1)
		pat := mustPattern(b, q)
		for _, m := range experiments.Methods() {
			b.Run(q.ID+"/"+m.String(), func(b *testing.B) {
				var plans int
				for i := 0; i < b.N; i++ {
					res, err := db.Optimize(pat, m, 0)
					if err != nil {
						b.Fatal(err)
					}
					plans = res.Counters.PlansConsidered
				}
				b.ReportMetric(float64(plans), "plans")
			})
		}
	}
}

// BenchmarkTable1Execute measures the plan-evaluation columns of Table 1:
// the chosen plan of every query × algorithm, executed to completion.
func BenchmarkTable1Execute(b *testing.B) {
	for _, q := range experiments.Queries() {
		db := mustDataset(b, q.Dataset, 1)
		pat := mustPattern(b, q)
		for _, m := range experiments.Methods() {
			res, err := db.Optimize(pat, m, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(q.ID+"/"+m.String(), func(b *testing.B) {
				var n int
				for i := 0; i < b.N; i++ {
					var err error
					n, _, err = execCount(db, pat, res.Plan)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n), "matches")
			})
		}
	}
}

// BenchmarkTable1BadPlan measures the "Bad Plan" column: the worst of a
// random plan sample, executed.
func BenchmarkTable1BadPlan(b *testing.B) {
	for _, q := range experiments.Queries() {
		db := mustDataset(b, q.Dataset, 1)
		pat := mustPattern(b, q)
		bad, err := db.BadPlan(pat, experiments.BadPlanSamples, 20030301)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := execCount(db, pat, bad.Plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2SearchEffort measures Table 2: optimization time and the
// number of alternative plans considered on Q.Pers.3.d, for all six
// algorithm variants including DPP′.
func BenchmarkTable2SearchEffort(b *testing.B) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	db := mustDataset(b, q.Dataset, 1)
	pat := mustPattern(b, q)
	for _, m := range experiments.MethodsTable2() {
		b.Run(m.String(), func(b *testing.B) {
			var plans int
			for i := 0; i < b.N; i++ {
				res, err := db.Optimize(pat, m, 0)
				if err != nil {
					b.Fatal(err)
				}
				plans = res.Counters.PlansConsidered
			}
			b.ReportMetric(float64(plans), "plans")
		})
	}
}

// BenchmarkTable3Folding measures Table 3: the execution time of each
// algorithm's chosen plan as the Pers data set is folded ×1/×10/×100.
// (The paper's ×500 point works via `xqbench -table 3 -full`; it is left
// out here to keep default benchmark runs minutes, not hours.)
func BenchmarkTable3Folding(b *testing.B) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	pat := mustPattern(b, q)
	for _, fold := range []int{1, 10, 100} {
		db := mustDataset(b, q.Dataset, fold)
		for _, m := range append(experiments.Methods(), -1) {
			var plan *sjos.Plan
			label := "bad"
			if m >= 0 {
				label = m.String()
				res, err := db.Optimize(pat, m, 0)
				if err != nil {
					b.Fatal(err)
				}
				plan = res.Plan
			} else {
				res, err := db.BadPlan(pat, experiments.BadPlanSamples, 20030301)
				if err != nil {
					b.Fatal(err)
				}
				plan = res.Plan
			}
			b.Run(fmt.Sprintf("x%d/%s", fold, label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := execCount(db, pat, plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchTeSweep is the shared driver of Figures 7 and 8: total query
// evaluation time (optimize + execute) of DPAP-EB as Te grows, plus the
// reference algorithms.
func benchTeSweep(b *testing.B, fold int) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	db := mustDataset(b, q.Dataset, fold)
	pat := mustPattern(b, q)
	total := func(b *testing.B, m sjos.Method, te int) {
		for i := 0; i < b.N; i++ {
			res, err := db.Optimize(pat, m, te)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := execCount(db, pat, res.Plan); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, m := range []sjos.Method{sjos.MethodDP, sjos.MethodDPP} {
		b.Run(m.String(), func(b *testing.B) { total(b, m, 0) })
	}
	for te := 1; te <= pat.N(); te++ {
		b.Run(fmt.Sprintf("DPAP-EB(%d)", te), func(b *testing.B) { total(b, sjos.MethodDPAPEB, te) })
	}
	for _, m := range []sjos.Method{sjos.MethodDPAPLD, sjos.MethodFP} {
		b.Run(m.String(), func(b *testing.B) { total(b, m, 0) })
	}
}

// BenchmarkFigure7TeSweep is Figure 7: the Te sweep at folding factor 100,
// where execution dominates and a large Te (or simply DPP) wins.
func BenchmarkFigure7TeSweep(b *testing.B) { benchTeSweep(b, 100) }

// BenchmarkFigure8TeSweep is Figure 8: the same sweep at folding factor 1,
// where optimization time is comparable to execution and FP wins overall.
func BenchmarkFigure8TeSweep(b *testing.B) { benchTeSweep(b, 1) }

// BenchmarkAblationLookahead isolates the Lookahead Rule (DESIGN.md A1):
// DPP vs DPP′ optimization time across all eight queries.
func BenchmarkAblationLookahead(b *testing.B) {
	for _, q := range experiments.Queries() {
		db := mustDataset(b, q.Dataset, 1)
		pat := mustPattern(b, q)
		for _, m := range []sjos.Method{sjos.MethodDPP, sjos.MethodDPPNoLookahead} {
			b.Run(q.ID+"/"+m.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := db.Optimize(pat, m, 0); err != nil {
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
	fp, err := db.Optimize(pat, sjos.MethodFP, 0)
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
		hist, err := db.Optimize(pat, sjos.MethodDPP, 0)
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

// BenchmarkAblationTwigStack compares the best structural-join plan against
// the holistic TwigStack evaluation (DESIGN.md A3) on every query, with the
// plan run both serial and partition-parallel.
func BenchmarkAblationTwigStack(b *testing.B) {
	for _, q := range experiments.Queries() {
		db := mustDataset(b, q.Dataset, 1)
		pat := mustPattern(b, q)
		res, err := db.Optimize(pat, sjos.MethodDPP, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID+"/plan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := execCount(db, pat, res.Plan); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/plan-parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := execParallelCount(db, pat, res.Plan, runtime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/twigstack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.TwigStack(pat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelExecute measures partition-parallel execution of the
// DPP plan for Q.Pers.3.d on the ×100 folded Pers data set: serial
// baseline, then 1/2/4/8 workers. K=1 isolates the driver's overhead
// (single-partition fast path: it should stay within a few percent of
// serial); higher K shows the speedup on multi-core machines — on a
// single-CPU machine all worker counts collapse to roughly serial time.
func BenchmarkParallelExecute(b *testing.B) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	db := mustDataset(b, q.Dataset, 100)
	pat := mustPattern(b, q)
	res, err := db.Optimize(pat, sjos.MethodDPP, 0)
	if err != nil {
		b.Fatal(err)
	}
	want, _, err := execCount(db, pat, res.Plan)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := execCount(db, pat, res.Plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, _, err := execParallelCount(db, pat, res.Plan, k)
				if err != nil {
					b.Fatal(err)
				}
				if n != want {
					b.Fatalf("parallel count %d, serial %d", n, want)
				}
			}
		})
	}
}

// BenchmarkPlanCacheColdOptimize measures the optimize phase of the
// representative query with the plan cache bypassed — every iteration runs
// a full optimizer search.
func BenchmarkPlanCacheColdOptimize(b *testing.B) {
	q, err := experiments.QueryByID(experiments.PersQuery3)
	if err != nil {
		b.Fatal(err)
	}
	db := mustDataset(b, q.Dataset, 1)
	var opt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryContext(context.Background(), q.Source,
			sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, NoCache: true, Limit: 1}})
		if err != nil {
			b.Fatal(err)
		}
		opt += res.OptimizeTime
	}
	b.ReportMetric(float64(opt.Nanoseconds())/float64(b.N), "optimize-ns/op")
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

// planColdCorpus is the repository benchmark's corpus shape: eight pers
// documents on four shards.
func planColdCorpus(tb testing.TB) *sjos.Corpus {
	tb.Helper()
	cb := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 4})
	for i := 0; i < 8; i++ {
		if err := cb.AddDataset(fmt.Sprintf("pers-%03d", i), "pers", 1, 1, int64(1+i)); err != nil {
			tb.Fatal(err)
		}
	}
	c, err := cb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return c
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
	c := planColdCorpus(tb)
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
			r, err := c.Run(ctx, pat, opt.Plan, sjos.RunOptions{CountOnly: true})
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

// Budgets for one steady-state execution of a plan_cold twig. Before
// executions ran on a pooled scratch one cost 3.3-3.8 MB in 1 800-2 400
// objects (reader batches and a 64 KB arena chunk per join and shard);
// measured now: ~45 KB in ~330, except plan-cold-5 at ~340 KB in ~360 — its
// range probe merges one cursor per distinct number in every member's value
// index.
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
// the scan+filter escape hatch on selective-predicate queries over the
// DBLP data set. Each lane executes its own optimizer-chosen plan
// (ValueIndexScan vs IndexScan leaves) count-only, isolating the access-path
// difference from match materialisation. The probe lane should win by >=1.5x.
func BenchmarkContentIndex(b *testing.B) {
	queries := []struct {
		name string
		src  string
	}{
		{"range-year", `//article[year < 1975]/title`},
		{"eq-booktitle", `//inproceedings[booktitle = "conf-7"]/author`},
	}
	for _, q := range queries {
		pat, err := sjos.ParsePattern(q.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, fold := range []int{1, 10} {
			db := mustDataset(b, "dblp", fold)
			want := -1
			for _, lane := range []struct {
				name   string
				noVidx bool
			}{{"probe", false}, {"scan", true}} {
				res, err := db.QueryPatternContext(context.Background(), pat,
					sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, NoValueIndex: lane.noVidx, NoCache: true}})
				if err != nil {
					b.Fatal(err)
				}
				if want == -1 {
					want = len(res.Matches)
				} else if len(res.Matches) != want {
					b.Fatalf("%s found %d matches, want %d", lane.name, len(res.Matches), want)
				}
				if probes := res.Exec.ValueProbes; (probes > 0) == lane.noVidx {
					b.Fatalf("%s lane ran %d value probes", lane.name, probes)
				}
				b.Run(fmt.Sprintf("%s/fold=%d/%s", q.name, fold, lane.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						r, err := db.Run(context.Background(), pat, res.Plan,
							sjos.RunOptions{CountOnly: true})
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
