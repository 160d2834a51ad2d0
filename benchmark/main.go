// Command benchmark is the repository's benchmark: it spawns cmd/xqserve,
// feeds it documents and queries generated from a seed, drives four
// closed-loop workloads over HTTP, checks every answer against an oracle of
// its own, and prints each metric by name and unit. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract. Run it through run.sh, which builds both binaries first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	quick    bool
	repeat   int
	check    bool
	classes  bool
	bin      string
	tmpRoot  string
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed for documents, constants, list order and the mutation ledger")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase of an end-to-end run")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run (per-layer metrics, spans) instead of the end-to-end run")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/spans.json", "where a traced run writes its spans")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: two documents, tiny lists, one set-up")
	flag.IntVar(&o.repeat, "repeat", 1, "run the selected workloads this many times")
	flag.BoolVar(&o.check, "check", false, "with -repeat: exit non-zero if a metric differs between runs by more than its bound")
	flag.BoolVar(&o.classes, "classes", false, "print, per step of the cycle, the repeats its quiet latency was read off")
	flag.StringVar(&o.bin, "xqserve", ".bench_build/xqserve", "xqserve binary built from the working tree")
	flag.StringVar(&o.tmpRoot, "tmp", ".bench_build/tmp", "directory for WAL directories and server logs")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 || o.repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		return 2
	}
	var selected []*workload
	if o.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat(o.bin); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v (benchmark/run.sh builds it)\n", err)
		return 2
	}
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(o.tmpRoot, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	cleanup := func() {
		killAllChildren()
		os.RemoveAll(tmp)
	}
	defer cleanup()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	// runs[r][workload] is one result.
	runs := make([]map[string]*result, o.repeat)
	ok := true
	for r := range runs {
		runs[r] = map[string]*result{}
		for _, w := range selected {
			dir := filepath.Join(tmp, fmt.Sprintf("%s-%d", w.name, r))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 2
			}
			res := runWorkload(w, &o, dir, defs)
			runs[r][w.name] = res
			ok = ok && res.Correct
		}
	}
	if o.repeat > 1 && !compareRuns(os.Stdout, runs, selected, defs) && o.check {
		ok = false
	}
	// One workload: the last line is its result. Several: a summary, which
	// claims nothing — this benchmark measures, changes elsewhere claim.
	last := runs[len(runs)-1]
	var line []byte
	if len(selected) == 1 {
		line, err = json.Marshal(last[selected[0].name])
	} else {
		line, err = json.Marshal(struct {
			Seed      int64              `json:"seed"`
			Workloads map[string]*result `json:"workloads"`
			Claim     *string            `json:"claim"`
		}{o.seed, last, nil})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Printf("%s\n", line)
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload runs one workload once, end to end or traced, prints its table
// and returns its result.
func runWorkload(w *workload, o *options, dir string, defs []metricDef) *result {
	size := sizing{docs: corpusDocs, seconds: o.seconds, sideEvery: time.Second, recoveries: 15}
	if o.trace == 1 {
		size = sizing{docs: corpusDocs, passes: w.tracePasses, recoveries: 1}
	}
	if o.quick {
		size.docs, size.sideEvery, size.recoveries, size.passes = 2, 0, 1, w.quickPasses
	}
	h := newHarness(o.bin, dir, size)
	defer h.close()
	values := h.metrics
	in, err := newInputs(w.name, size, o.seed)
	switch {
	case err != nil:
	case o.trace == 1:
		values = h.layer
		err = traceWorkload(h, in, o.traceOut)
	default:
		err = h.endToEnd(in)
	}
	if err != nil {
		h.op(w.name, err)
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, have := values[d.name]
		if !have {
			h.op("metric "+d.name, fmt.Errorf("not measured"))
			continue
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	res.Attempted, res.Failed, res.Correct = h.attempted, h.failed, h.failed == 0
	printTable(os.Stdout, w.name, o, h, defs, res)
	return res
}

func printTable(out io.Writer, name string, o *options, h *harness, defs []metricDef, res *result) {
	mode := "end to end"
	if o.trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(out, "\n%s  (%s, seed %d, %d attempted, %d failed)\n", name, mode, o.seed, res.Attempted, res.Failed)
	for _, d := range defs {
		m, have := res.Metrics[d.name]
		if !have {
			fmt.Fprintf(out, "  %-34s %14s\n", d.name, "not measured")
			continue
		}
		samples := ""
		if n := h.counts[d.name]; n > 0 {
			samples = fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintf(out, "  %-34s %14.4f %-6s %s is better%s\n", d.name, m.Value, m.Unit, d.better, samples)
	}
	if o.trace == 0 {
		// What the served run saw besides: printed for the reader, not gated
		// and not in the result line.
		var seen []string
		for name := range h.layer {
			seen = append(seen, name)
		}
		sort.Strings(seen)
		for _, name := range seen {
			fmt.Fprintf(out, "  %-34s %14.4f        (observed)\n", name, h.layer[name])
		}
		if n := int(h.layer["client.samples"]); n > 0 {
			fmt.Fprintf(out, "  highest percentile with ten samples beyond it: p%g of %d\n", highestSupported(n), n)
		}
	}
	if o.classes {
		fmt.Fprintln(out, "  steps of one pass, each with its class's repeats:")
		for _, c := range h.classes {
			fmt.Fprintf(out, "    %s\n", c)
		}
	}
	for _, f := range h.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

// compareRuns prints, per workload and metric, the spread between repeated
// runs — (max − min) / median — beside the metric's bound, and reports whether
// every bounded metric stayed within it.
func compareRuns(out io.Writer, runs []map[string]*result, selected []*workload, defs []metricDef) bool {
	within := true
	fmt.Fprintf(out, "\nspread over %d runs\n", len(runs))
	for _, w := range selected {
		for _, d := range defs {
			var vs []float64
			for _, r := range runs {
				if m, have := r[w.name].Metrics[d.name]; have {
					vs = append(vs, m.Value)
				}
			}
			if len(vs) < 2 {
				continue
			}
			sort.Float64s(vs)
			spread := 0.0
			if mid := percentile(vs, 50); mid != 0 {
				spread = (vs[len(vs)-1] - vs[0]) / mid
			}
			verdict := ""
			if d.bound > 0 {
				verdict = fmt.Sprintf("bound %.3f", d.bound)
				if spread > d.bound {
					verdict += "  BEYOND"
					within = false
				}
			}
			fmt.Fprintf(out, "  %-14s %-34s %8.4f  %s\n", w.name, d.name, spread, verdict)
		}
	}
	return within
}
