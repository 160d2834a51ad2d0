// Command xqrun evaluates one tree-pattern query against an XML file (or a
// generated data set) end to end: parse, optimize, explain, execute.
//
// Usage:
//
//	xqrun -xml file.xml -query '//manager//employee/name'
//	xqrun -dataset pers -query '//manager[.//employee/name]//manager/department/name'
//	xqrun -dataset dblp -fold 10 -method FP -query '//article[author]/title' -limit 5
//	xqrun -dataset pers -explain -query '//manager//employee/name'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sjos"
)

func main() {
	xmlPath := flag.String("xml", "", "XML file to load")
	dataset := flag.String("dataset", "", "generated data set: mbench, dblp or pers")
	fold := flag.Int("fold", 1, "folding factor for -dataset")
	query := flag.String("query", "", "tree pattern (XPath-like twig syntax)")
	method := flag.String("method", "DPP", "optimizer: DP, DPP, DPP', DPAP-EB, DPAP-LD, FP")
	limit := flag.Int("limit", 10, "matches to print (0 = count only)")
	explain := flag.Bool("explain", false, "compare all optimizers instead of executing")
	trace := flag.Bool("trace", false, "print the DPP search trace instead of executing")
	timeout := flag.Duration("timeout", 0, "abort the query after this duration (0 = none)")
	noCache := flag.Bool("nocache", false, "bypass the plan cache")
	noVidx := flag.Bool("novidx", false, "disable value-index probes (predicated leaves scan+filter)")
	opTrace := flag.Bool("optrace", false, "print the per-operator execution trace")
	flag.Parse()

	if *query == "" || (*xmlPath == "") == (*dataset == "") {
		fmt.Fprintln(os.Stderr, "xqrun: need -query and exactly one of -xml / -dataset")
		flag.Usage()
		os.Exit(2)
	}
	mode := modeRun
	if *explain {
		mode = modeExplain
	}
	if *trace {
		mode = modeTrace
	}
	cfg := runCfg{
		xmlPath: *xmlPath, dataset: *dataset, fold: *fold,
		query: *query, method: *method, limit: *limit,
		mode: mode, timeout: *timeout, noCache: *noCache, noVidx: *noVidx, opTrace: *opTrace,
	}
	if err := runWith(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "xqrun: %v\n", err)
		os.Exit(1)
	}
}

type mode int

const (
	modeRun mode = iota
	modeExplain
	modeTrace
)

// runCfg bundles one invocation's settings.
type runCfg struct {
	xmlPath, dataset string
	fold             int
	query, method    string
	limit            int
	mode             mode
	timeout          time.Duration
	noCache          bool
	noVidx           bool
	opTrace          bool
}

// run keeps the original signature for the tests; explain selects
// modeExplain.
func run(xmlPath, dataset string, fold int, query, method string, limit int, explain bool) error {
	m := modeRun
	if explain {
		m = modeExplain
	}
	return runMode(xmlPath, dataset, fold, query, method, limit, m)
}

func runMode(xmlPath, dataset string, fold int, query, method string, limit int, m mode) error {
	return runWith(runCfg{
		xmlPath: xmlPath, dataset: dataset, fold: fold,
		query: query, method: method, limit: limit, mode: m,
	})
}

// runWith loads the database and evaluates the query per cfg; a non-zero
// timeout cancels the optimize and execute phases through the query
// context.
func runWith(cfg runCfg) error {
	var db *sjos.Database
	var err error
	if cfg.xmlPath != "" {
		f, err2 := os.Open(cfg.xmlPath)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		db, err = sjos.LoadXML(f, nil)
	} else {
		db, err = sjos.GenerateDataset(cfg.dataset, 1, cfg.fold, nil)
	}
	if err != nil {
		return err
	}
	fmt.Printf("database: %d element nodes\n", db.NumNodes())

	pat, err := sjos.ParsePattern(cfg.query)
	if err != nil {
		return err
	}
	switch cfg.mode {
	case modeExplain:
		s, err := db.Explain(pat)
		if err != nil {
			return err
		}
		fmt.Print(s)
		return nil
	case modeTrace:
		s, err := db.TraceDPP(pat)
		if err != nil {
			return err
		}
		fmt.Print(s)
		return nil
	}
	meth, err := sjos.ParseMethod(cfg.method)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	res, err := db.QueryPatternContext(ctx, pat,
		sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: meth, NoCache: cfg.noCache, NoValueIndex: cfg.noVidx, Trace: cfg.opTrace}})
	if err != nil {
		return err
	}
	cachedNote := ""
	if res.CachedPlan {
		cachedNote = " [cached plan]"
	}
	fmt.Printf("optimizer %s considered %d plans in %v (estimated cost %.0f)%s\n",
		cfg.method, res.PlansConsidered, res.OptimizeTime, res.EstCost, cachedNote)
	fmt.Println("plan:")
	fmt.Print(indent(res.PlanText))
	if res.Trace != nil {
		fmt.Println("operator trace:")
		fmt.Print(indent(res.Trace.Format()))
	}
	fmt.Printf("%d matches in %v\n", len(res.Matches), res.ExecuteTime)
	for i, match := range res.Matches {
		if cfg.limit >= 0 && i >= cfg.limit {
			fmt.Printf("... and %d more\n", len(res.Matches)-cfg.limit)
			break
		}
		var row []byte
		for u, id := range match {
			if u > 0 {
				row = append(row, ", "...)
			}
			row = sjos.AppendCell(row, db.TagName(id), db.Value(id), id)
		}
		fmt.Printf("  (%s)\n", row)
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ") + "\n"
}
