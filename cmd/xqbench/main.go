// Command xqbench runs what no other bench surface produces: the paper's
// evaluation tables and figures, the planner regret lane and the open-loop
// load lane. (The gated end-to-end numbers are the repository benchmark's,
// benchmark/run.sh; per-layer numbers are `go test -bench` lanes.)
//
// Usage:
//
//	xqbench <lane> [-quick] [-full] [-out FILE]
//
// `xqbench` alone lists the lanes. A lane prints its text to stdout and
// writes a file only when -out names one: its result inside the one envelope
// {lane, quick, env, result}.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sjos"
	"sjos/internal/core"
	"sjos/internal/experiments"
)

// config is what the three flags select, minus the output file.
type config struct{ quick, full bool }

// lane is one thing xqbench can run: its result (what -out writes), the text
// it prints, and whether it failed.
type lane struct {
	name, what string
	run        func(config) (result any, text string, err error)
}

// paperLanes is what `all` runs, in the paper's order.
const paperLanes = 5

func lanes() []lane {
	return []lane{
		{"table1", "Table 1: optimization and evaluation time, 8 queries x 6 algorithms + the bad plan", func(config) (any, string, error) {
			rows, err := experiments.Table1()
			return rows, experiments.RenderTable1(rows), err
		}},
		{"table2", "Table 2: optimization time and plans considered, " + experiments.PersQuery3, func(config) (any, string, error) {
			cols, err := experiments.Table2(experiments.PersQuery3)
			return cols, experiments.RenderTable2(cols, experiments.PersQuery3), err
		}},
		{"table3", "Table 3: evaluation time vs folding factor x1 x10 x100 (-full: and x500, slow, ~2 GB)", func(c config) (any, string, error) {
			folds := []int{1, 10, 100}
			if c.full {
				folds = append(folds, 500)
			}
			rows, err := experiments.Table3(folds)
			return rows, experiments.RenderTable3(rows), err
		}},
		{"figure7", "Figure 7: DPAP-EB Te sweep at fold x100", func(config) (any, string, error) { return figure(100) }},
		{"figure8", "Figure 8: DPAP-EB Te sweep at fold x1", func(config) (any, string, error) { return figure(1) }},
		{"census", "status search-space census of the benchmark patterns (section 3's complexity, counted)", census},
		{"all", "every table and figure", func(c config) (any, string, error) {
			results := map[string]any{}
			var text []string
			for _, l := range lanes()[:paperLanes] {
				res, t, err := l.run(c)
				if err != nil {
					return nil, "", fmt.Errorf("%s: %w", l.name, err)
				}
				results[l.name], text = res, append(text, t)
			}
			return results, strings.Join(text, "\n"), nil
		}},
		{"planner", "optimize time, execution time and regret of every method (-quick: fold x1, small budgets)", func(c config) (any, string, error) {
			res, err := experiments.PlannerBench(experiments.PlannerConfig{Quick: c.quick})
			if err != nil {
				return nil, "", err
			}
			return res, experiments.RenderPlannerBench(res), nil
		}},
		{"load", "open-loop rate ladder: healthy, one slow replica a shard (-quick: two short steps)", func(c config) (any, string, error) {
			res, err := experiments.Load(c.quick)
			if err != nil {
				return nil, "", err
			}
			return res, experiments.RenderLoad(res), res.Verify()
		}},
	}
}

func figure(fold int) (any, string, error) {
	bars, err := experiments.Figure78(fold)
	return bars, experiments.RenderFigure(bars, fold), err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs passed in: 0 on success, 1 when the
// lane fails, 2 (after the usage text) on an unknown lane or flag.
func run(args []string, stdout, stderr io.Writer) int {
	// The set shadows the package from here on: the three definitions below
	// are the whole flag surface.
	flag := flag.NewFlagSet("xqbench", flag.ContinueOnError)
	flag.SetOutput(stderr)
	flag.Usage = func() {
		fmt.Fprintln(stderr, "usage: xqbench <lane> [-quick] [-full] [-out FILE]\nlanes:")
		for _, l := range lanes() {
			fmt.Fprintf(stderr, "  %-8s %s\n", l.name, l.what)
		}
		fmt.Fprintln(stderr, "flags:")
		flag.PrintDefaults()
	}
	quick := flag.Bool("quick", false, "CI-sized geometry and budgets (planner, load)")
	full := flag.Bool("full", false, "include the x500 fold (table3)")
	out := flag.String("out", "", "also write the lane's result, in the result envelope, to this file")
	var chosen *lane
	for _, l := range lanes() {
		if len(args) > 0 && l.name == args[0] {
			chosen = &l
		}
	}
	if chosen == nil {
		flag.Usage()
		return 2
	}
	if err := flag.Parse(args[1:]); err != nil {
		return 2
	}
	if flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	result, text, err := chosen.run(config{quick: *quick, full: *full})
	fmt.Fprint(stdout, text)
	if err == nil && *out != "" {
		if err = experiments.WriteEnvelope(*out, chosen.name, *quick, result); err == nil {
			fmt.Fprintf(stdout, "wrote %s\n", *out)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "xqbench: %s: %v\n", chosen.name, err)
		return 1
	}
	return 0
}

// censusRow is one benchmark pattern's status search space (Definitions 1-6;
// deadends per Definition 6).
type censusRow struct {
	Query                             string
	Nodes, Statuses, Deadends, Finals int
	PerLevel                          []int
}

// census counts the search space of every benchmark query's pattern: the
// measurable form of section 3's complexity analysis.
func census(config) (any, string, error) {
	var rows []censusRow
	var sb strings.Builder
	fmt.Fprintln(&sb, "Status search-space census (Definition 1-6; deadends per Definition 6)")
	fmt.Fprintf(&sb, "%-14s %-7s %-9s %-9s %-7s %s\n", "Query", "nodes", "statuses", "deadends", "finals", "per level")
	for _, q := range experiments.Queries() {
		pat, err := sjos.ParsePattern(q.Source)
		if err != nil {
			return nil, "", err
		}
		c, err := core.CensusSearchSpace(pat)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, censusRow{q.ID, pat.N(), c.Statuses, c.Deadends, c.Finals, c.PerLevel})
		fmt.Fprintf(&sb, "%-14s %-7d %-9d %-9d %-7d %v\n", q.ID, pat.N(), c.Statuses, c.Deadends, c.Finals, c.PerLevel)
	}
	return rows, sb.String(), nil
}
