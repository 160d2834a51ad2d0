// Command xqbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	xqbench -table 1            # Table 1: opt + eval time, 8 queries × 5 algorithms
//	xqbench -table 2            # Table 2: opt time & plans considered, Q.Pers.3.d
//	xqbench -table 3            # Table 3: eval time vs folding factor (×1 ×10 ×100)
//	xqbench -table 3 -full      # ... including the ×500 fold (slow, needs ~2 GB)
//	xqbench -figure 7           # Figure 7: DPAP-EB Te sweep, fold ×100
//	xqbench -figure 8           # Figure 8: DPAP-EB Te sweep, fold ×1
//	xqbench -cachebench         # plan cache: cold vs warm optimize phase
//	xqbench -contentbench       # value-index probes vs scan+filter, selective predicates
//	xqbench -chaos              # fault-injected runs: every result correct or typed error
//	xqbench -loadbench          # open-loop corpus serving: p50/p95/p99 under Poisson load
//	xqbench -replicabench       # hedged vs unhedged tails with a slow replica per shard
//	xqbench -plannerbench       # plan-search vs execution time, all methods, stress shapes
//	xqbench -plannerquick       # the planner lane as a fast CI smoke test
//	xqbench -churnbench         # queries under concurrent WAL-committed document churn
//	xqbench -churnquick         # the churn lane as a fast CI smoke test
//	xqbench -all                # everything (without -full folds)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sjos"
	"sjos/internal/core"
	"sjos/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "regenerate table 1, 2 or 3")
	figure := flag.Int("figure", 0, "regenerate figure 7 or 8")
	all := flag.Bool("all", false, "regenerate every table and figure")
	full := flag.Bool("full", false, "include the x500 fold in table 3 (slow)")
	census := flag.Bool("census", false, "print the status search-space census for the benchmark patterns (§3 complexity)")
	parallel := flag.Int("parallel", 0, "run table 3 partition-parallel with this many workers (0 = serial, -1 = GOMAXPROCS)")
	cachebench := flag.Bool("cachebench", false, "measure cold vs warm (plan-cached) optimize time per benchmark query")
	contentbench := flag.Bool("contentbench", false, "measure value-index predicate pushdown vs scan+filter")
	method := flag.String("method", "DPP", "optimizer for -cachebench, -contentbench and -churnbench")
	chaos := flag.Bool("chaos", false, "drive all queries and methods over a fault-injecting store")
	chaosIters := flag.Int("chaositers", 0, "fault iterations per query x method for -chaos (0 = default)")
	chaosProb := flag.Float64("chaosprob", 0, "per-read transient fault probability for -chaos (0 = default)")
	chaosSeed := flag.Int64("chaosseed", 1, "fault schedule seed for -chaos")
	loadbench := flag.Bool("loadbench", false, "open-loop load benchmark against a sharded corpus")
	loadrate := flag.Float64("loadrate", 0, "offered query rate per second for -loadbench (0 = default)")
	loadduration := flag.Duration("loadduration", 0, "load phase length for -loadbench (0 = default)")
	loadclients := flag.Int("loadclients", 0, "client workers for -loadbench (0 = default)")
	loaddocs := flag.Int("loaddocs", 0, "corpus documents for -loadbench (0 = default)")
	loadshards := flag.Int("loadshards", 0, "corpus shards for -loadbench (0 = default)")
	loadout := flag.String("loadout", "BENCH_corpus.json", "JSON result file for -loadbench (empty = stdout only)")
	loadreplicas := flag.Int("loadreplicas", 0, "store replicas per shard for -loadbench (0 = 1; >1 enables hedged routing)")
	replicabench := flag.Bool("replicabench", false, "hedged vs unhedged tail comparison with one slow replica per shard")
	replicaslow := flag.Duration("replicaslow", 0, "per-read latency of each shard's slow replica for -replicabench (0 = default)")
	replicahedge := flag.Duration("replicahedge", 0, "fixed hedge delay for -replicabench and -loadbench (0 = adaptive p95)")
	replicaout := flag.String("replicaout", "BENCH_replica.json", "JSON result file for -replicabench (empty = stdout only)")
	plannerbench := flag.Bool("plannerbench", false, "measure plan-search vs execution time for every method across Table-3 and stress workloads")
	plannerquick := flag.Bool("plannerquick", false, "the planner lane at fold x1 with small timing budgets (CI smoke test)")
	plannerout := flag.String("plannerout", "BENCH_planner.json", "JSON result file for -plannerbench (empty = stdout only)")
	churnbench := flag.Bool("churnbench", false, "measure query latency under concurrent document churn (WAL-committed inserts/replaces/deletes)")
	churnquick := flag.Bool("churnquick", false, "the churn lane shrunk to a CI smoke test")
	churnrate := flag.Float64("churnrate", 0, "offered mutation rate per second for -churnbench (0 = default)")
	churnout := flag.String("churnout", "BENCH_churn.json", "JSON result file for -churnbench (empty = stdout only)")
	flag.Parse()

	if *census {
		if err := printCensus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "xqbench: census: %v\n", err)
			os.Exit(1)
		}
		if !*all && *table == 0 && *figure == 0 {
			return
		}
	}
	if !*all && !*census && !*cachebench && !*contentbench && !*chaos && !*loadbench && !*replicabench && !*plannerbench && !*plannerquick && !*churnbench && !*churnquick && *table == 0 && *figure == 0 {
		flag.Usage()
		os.Exit(2)
	}
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "xqbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *churnbench || *churnquick {
		run("churnbench", func() error {
			m, err := sjos.ParseMethod(*method)
			if err != nil {
				return err
			}
			res, err := experiments.ChurnBench(experiments.ChurnBenchConfig{
				Docs:       *loaddocs,
				Shards:     *loadshards,
				QueryRate:  *loadrate,
				MutateRate: *churnrate,
				Duration:   *loadduration,
				Clients:    *loadclients,
				Method:     m,
				Seed:       1,
				Quick:      *churnquick,
			})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderChurnBench(res))
			if err := res.Verify(); err != nil {
				return err
			}
			if *churnout != "" {
				blob, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*churnout, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *churnout)
			}
			return nil
		})
		if !*all && !*plannerbench && !*plannerquick && !*loadbench && !*replicabench && !*chaos && !*cachebench && !*contentbench && *table == 0 && *figure == 0 {
			return
		}
	}
	if *plannerbench || *plannerquick {
		run("plannerbench", func() error {
			res, err := experiments.PlannerBench(experiments.PlannerConfig{Quick: *plannerquick})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderPlannerBench(res))
			if *plannerout != "" {
				blob, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*plannerout, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *plannerout)
			}
			return nil
		})
		if !*all && !*loadbench && !*replicabench && !*chaos && !*cachebench && !*contentbench && *table == 0 && *figure == 0 {
			return
		}
	}
	if *loadbench {
		run("loadbench", func() error {
			m, err := sjos.ParseMethod(*method)
			if err != nil {
				return err
			}
			res, err := experiments.LoadBench(experiments.LoadBenchConfig{
				Docs:       *loaddocs,
				Shards:     *loadshards,
				Rate:       *loadrate,
				Duration:   *loadduration,
				Clients:    *loadclients,
				Method:     m,
				Seed:       1,
				Replicas:   *loadreplicas,
				HedgeDelay: *replicahedge,
			})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderLoadBench(res))
			if res.Completed == 0 || res.Throughput <= 0 {
				return fmt.Errorf("no queries completed under load")
			}
			if !res.DrainClean {
				return fmt.Errorf("corpus did not drain cleanly after the load phase")
			}
			if *loadout != "" {
				blob, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*loadout, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *loadout)
			}
			return nil
		})
		if !*all && !*replicabench && !*chaos && !*cachebench && !*contentbench && *table == 0 && *figure == 0 {
			return
		}
	}
	if *replicabench {
		run("replicabench", func() error {
			m, err := sjos.ParseMethod(*method)
			if err != nil {
				return err
			}
			res, err := experiments.ReplicaBench(experiments.ReplicaBenchConfig{
				Docs:        *loaddocs,
				Shards:      *loadshards,
				Replicas:    *loadreplicas,
				SlowLatency: *replicaslow,
				HedgeDelay:  *replicahedge,
				Rate:        *loadrate,
				Duration:    *loadduration,
				Clients:     *loadclients,
				Method:      m,
				Seed:        1,
			})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderReplicaBench(res))
			if res.Unhedged.Completed == 0 || res.Hedged.Completed == 0 {
				return fmt.Errorf("no queries completed under load")
			}
			if *replicaout != "" {
				blob, err := json.MarshalIndent(res, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*replicaout, append(blob, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *replicaout)
			}
			return nil
		})
		if !*all && !*chaos && !*cachebench && !*contentbench && *table == 0 && *figure == 0 {
			return
		}
	}
	if *chaos {
		run("chaos", func() error {
			cfg := experiments.ChaosConfig{Iters: *chaosIters, Prob: *chaosProb, Seed: *chaosSeed}
			rows, err := experiments.Chaos(cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderChaos(rows, cfg))
			return nil
		})
		if !*all && !*cachebench && !*contentbench && *table == 0 && *figure == 0 {
			return
		}
	}
	if *cachebench {
		run("cachebench", func() error {
			m, err := sjos.ParseMethod(*method)
			if err != nil {
				return err
			}
			rows, err := experiments.CacheBench(m, 3)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderCacheBench(rows))
			return nil
		})
		if !*all && !*contentbench && *table == 0 && *figure == 0 {
			return
		}
	}
	if *contentbench {
		run("contentbench", func() error {
			m, err := sjos.ParseMethod(*method)
			if err != nil {
				return err
			}
			folds := []int{1, 10, 100}
			if *full {
				folds = append(folds, 500)
			}
			rows, err := experiments.ContentBench(m, folds)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderContentBench(rows, m))
			return nil
		})
		if !*all && *table == 0 && *figure == 0 {
			return
		}
	}
	if *all || *table == 1 {
		run("table 1", func() error {
			rows, err := experiments.Table1()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable1(rows))
			return nil
		})
	}
	if *all || *table == 2 {
		run("table 2", func() error {
			cols, err := experiments.Table2(experiments.PersQuery3)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable2(cols, experiments.PersQuery3))
			return nil
		})
	}
	if *all || *table == 3 {
		run("table 3", func() error {
			folds := []int{1, 10, 100}
			if *full {
				folds = append(folds, 500)
			}
			var rows []experiments.Table3Row
			var err error
			if *parallel != 0 {
				fmt.Printf("(partition-parallel execution, %d workers)\n", *parallel)
				rows, err = experiments.Table3Parallel(folds, *parallel)
			} else {
				rows, err = experiments.Table3(folds)
			}
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTable3(rows))
			return nil
		})
	}
	if *all || *figure == 7 {
		run("figure 7", func() error {
			bars, err := experiments.Figure78(100)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFigure(bars, 100))
			return nil
		})
	}
	if *all || *figure == 8 {
		run("figure 8", func() error {
			bars, err := experiments.Figure78(1)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFigure(bars, 1))
			return nil
		})
	}
}

// printCensus writes the search-space census for every benchmark query's
// pattern: the measurable form of §3's complexity analysis (statuses,
// deadends, per-level growth).
func printCensus(w *os.File) error {
	fmt.Fprintln(w, "Status search-space census (Definition 1-6; deadends per Definition 6)")
	fmt.Fprintf(w, "%-14s %-7s %-9s %-9s %-7s %s\n",
		"Query", "nodes", "statuses", "deadends", "finals", "per level")
	for _, q := range experiments.Queries() {
		pat, err := sjos.ParsePattern(q.Source)
		if err != nil {
			return err
		}
		c, err := core.CensusSearchSpace(pat)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %-7d %-9d %-9d %-7d %v\n",
			q.ID, pat.N(), c.Statuses, c.Deadends, c.Finals, c.PerLevel)
	}
	return nil
}
