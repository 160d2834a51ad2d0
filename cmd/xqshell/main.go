// Command xqshell is an interactive shell over a loaded database: type a
// tree pattern (XPath-like twig syntax) or an XQuery FLWOR expression and
// see results; prefix commands inspect the optimizer.
//
//	xqshell -dataset pers
//	xqshell -xml file.xml -method FP
//
// Inside the shell:
//
//	//manager//employee/name          run a pattern query
//	for $m in //manager return $m     run an XQuery query
//	.explain <pattern>                compare all six optimizers
//	.analyze <pattern>                EXPLAIN ANALYZE (est vs actual)
//	.trace <pattern>                  DPP search trace
//	.method DPP|FP|Greedy|...         switch optimizer (bare .method lists valid names)
//	.limit N                          rows to print (default 10)
//	.cache                            plan cache statistics
//	.metrics                          process metrics (Prometheus text)
//	.slowlog <dur>|off                set the slow-query threshold
//	.slow                             recent slow-query log entries
//	.quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sjos"
)

func main() {
	xmlPath := flag.String("xml", "", "XML file to load")
	dataset := flag.String("dataset", "", "generated data set: mbench, dblp or pers")
	fold := flag.Int("fold", 1, "folding factor for -dataset")
	method := flag.String("method", "DPP", "initial optimizer")
	flag.Parse()
	if (*xmlPath == "") == (*dataset == "") {
		fmt.Fprintln(os.Stderr, "xqshell: need exactly one of -xml / -dataset")
		os.Exit(2)
	}
	var db *sjos.Database
	var err error
	if *xmlPath != "" {
		f, ferr := os.Open(*xmlPath)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "xqshell:", ferr)
			os.Exit(1)
		}
		db, err = sjos.LoadXML(f, nil)
		f.Close()
	} else {
		db, err = sjos.GenerateDataset(*dataset, 1, *fold, nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqshell:", err)
		os.Exit(1)
	}
	m, err := sjos.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqshell:", err)
		os.Exit(1)
	}
	sh := &shell{db: db, method: m, limit: 10, out: os.Stdout}
	fmt.Printf("xqshell: %d element nodes loaded; optimizer %s. '.quit' exits.\n",
		db.NumNodes(), m)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("sjos> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		if !sh.processLine(sc.Text()) {
			return
		}
	}
}

// shell holds the interactive session state; processLine is the unit the
// tests drive.
type shell struct {
	db     *sjos.Database
	method sjos.Method
	limit  int
	out    io.Writer
}

// processLine handles one input line; it returns false when the session
// should end.
func (sh *shell) processLine(line string) bool {
	line = strings.TrimSpace(line)
	switch {
	case line == "":
		return true
	case line == ".quit" || line == ".exit":
		return false
	case strings.HasPrefix(line, ".method"):
		arg := strings.TrimSpace(strings.TrimPrefix(line, ".method"))
		if arg == "" {
			fmt.Fprintln(sh.out, "optimizer:", sh.method)
			fmt.Fprintln(sh.out, "valid:", strings.Join(sjos.MethodNames(), ", "))
			return true
		}
		m, err := sjos.ParseMethod(arg)
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return true
		}
		sh.method = m
		fmt.Fprintln(sh.out, "optimizer:", m)
		return true
	case strings.HasPrefix(line, ".limit"):
		arg := strings.TrimSpace(strings.TrimPrefix(line, ".limit"))
		n, err := strconv.Atoi(arg)
		if err != nil || n < 0 {
			fmt.Fprintln(sh.out, "error: .limit needs a non-negative integer")
			return true
		}
		sh.limit = n
		return true
	case strings.HasPrefix(line, ".explain"):
		sh.withPattern(line, ".explain", func(p *sjos.Pattern) (string, error) {
			return sh.db.Explain(p)
		})
		return true
	case strings.HasPrefix(line, ".analyze"):
		sh.withPattern(line, ".analyze", func(p *sjos.Pattern) (string, error) {
			return sh.db.ExplainAnalyze(p, sh.method)
		})
		return true
	case strings.HasPrefix(line, ".trace"):
		sh.withPattern(line, ".trace", func(p *sjos.Pattern) (string, error) {
			return sh.db.TraceDPP(p)
		})
		return true
	case line == ".cache":
		cs := sh.db.CacheStats()
		fmt.Fprintf(sh.out, "plan cache: %d/%d entries, %d hits, %d misses, %d coalesced, %d evicted, %d invalidated\n",
			cs.Entries, cs.Capacity, cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions, cs.Invalidations)
		return true
	case line == ".metrics":
		sh.db.WriteMetrics(sh.out)
		return true
	case strings.HasPrefix(line, ".slowlog"):
		arg := strings.TrimSpace(strings.TrimPrefix(line, ".slowlog"))
		if arg == "off" || arg == "0" {
			sh.db.SetSlowQueryLog(0, nil)
			fmt.Fprintln(sh.out, "slow-query log: off")
			return true
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			fmt.Fprintln(sh.out, "error: .slowlog needs a positive duration (e.g. 100ms) or 'off'")
			return true
		}
		sh.db.SetSlowQueryLog(d, nil)
		fmt.Fprintf(sh.out, "slow-query log: threshold %v\n", d)
		return true
	case line == ".slow":
		entries := sh.db.SlowQueries()
		if len(entries) == 0 {
			fmt.Fprintln(sh.out, "slow-query log: empty")
			return true
		}
		for _, e := range entries {
			fmt.Fprintf(sh.out, "%s  %v (optimize %v, execute %v)  %d matches  %s\n",
				e.Pattern, e.Duration, e.OptimizeTime, e.ExecuteTime, e.Matches, e.Method)
			if e.Trace != nil {
				fmt.Fprint(sh.out, indentTrace(e.Trace.Format()))
			}
		}
		return true
	case strings.HasPrefix(line, "."):
		fmt.Fprintln(sh.out, "error: unknown command", strings.Fields(line)[0])
		return true
	case strings.HasPrefix(line, "for"):
		sh.runXQuery(line)
		return true
	default:
		sh.runPattern(line)
		return true
	}
}

// indentTrace indents a multi-line trace rendering for display under its
// slow-log entry header.
func indentTrace(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ") + "\n"
}

func (sh *shell) withPattern(line, cmd string, f func(*sjos.Pattern) (string, error)) {
	src := strings.TrimSpace(strings.TrimPrefix(line, cmd))
	pat, err := sjos.ParsePattern(src)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	s, err := f(pat)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprint(sh.out, s)
}

func (sh *shell) runPattern(src string) {
	res, err := sh.db.Query(src, sh.method)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	cached := ""
	if res.CachedPlan {
		cached = ", cached plan"
	}
	fmt.Fprintf(sh.out, "%d matches (optimize %v, execute %v%s)\n",
		len(res.Matches), res.OptimizeTime, res.ExecuteTime, cached)
	for i, m := range res.Matches {
		if i >= sh.limit {
			fmt.Fprintf(sh.out, "... and %d more\n", len(res.Matches)-sh.limit)
			break
		}
		var row []byte
		for u, id := range m {
			if u > 0 {
				row = append(row, ", "...)
			}
			row = sjos.AppendCell(row, sh.db.TagName(id), sh.db.Value(id), id)
		}
		fmt.Fprintf(sh.out, "  (%s)\n", row)
	}
}

func (sh *shell) runXQuery(src string) {
	res, err := sh.db.XQuery(src, sh.method)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	fmt.Fprintf(sh.out, "%d rows (optimize %v, execute %v)\n",
		len(res.Rows), res.OptimizeTime, res.ExecuteTime)
	for i, row := range res.Rows {
		if i >= sh.limit {
			fmt.Fprintf(sh.out, "... and %d more\n", len(res.Rows)-sh.limit)
			break
		}
		parts := make([]string, len(row))
		for j, id := range row {
			if v := sh.db.Value(id); v != "" {
				parts[j] = fmt.Sprintf("%q", v)
			} else {
				parts[j] = fmt.Sprintf("%s#%d", sh.db.TagName(id), id)
			}
		}
		fmt.Fprintf(sh.out, "  [%s]\n", strings.Join(parts, ", "))
	}
}
