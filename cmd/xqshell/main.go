// Command xqshell is an interactive shell over one loaded document: type a
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
	"context"
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
	b := sjos.NewCorpusBuilder(nil)
	if *xmlPath != "" {
		f, err := os.Open(*xmlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xqshell:", err)
			os.Exit(1)
		}
		b.AddXML(*xmlPath, f)
		f.Close()
	} else {
		b.AddDataset(*dataset, *dataset, 1, *fold, 0)
	}
	c, err := b.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqshell:", err)
		os.Exit(1)
	}
	m, err := sjos.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqshell:", err)
		os.Exit(1)
	}
	sh := &shell{c: c, method: m, limit: 10, out: os.Stdout}
	nodes := 0
	for _, h := range c.Health() {
		nodes += h.Nodes
	}
	fmt.Printf("xqshell: %d element nodes loaded; optimizer %s. '.quit' exits.\n",
		nodes, m)
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
	c      *sjos.Corpus
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
			return sh.c.Explain(p)
		})
		return true
	case strings.HasPrefix(line, ".analyze"):
		sh.withPattern(line, ".analyze", func(p *sjos.Pattern) (string, error) {
			return sh.c.ExplainAnalyze(p, sh.method)
		})
		return true
	case strings.HasPrefix(line, ".trace"):
		sh.withPattern(line, ".trace", func(p *sjos.Pattern) (string, error) {
			return sh.c.TraceDPP(p)
		})
		return true
	case line == ".cache":
		cs := sh.c.Metrics().Cache
		fmt.Fprintf(sh.out, "plan cache: %d/%d entries, %d hits, %d misses, %d coalesced, %d evicted, %d invalidated\n",
			cs.Entries, cs.Capacity, cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions, cs.Invalidations)
		return true
	case line == ".metrics":
		sh.c.WriteMetrics(sh.out)
		return true
	case strings.HasPrefix(line, ".slowlog"):
		arg := strings.TrimSpace(strings.TrimPrefix(line, ".slowlog"))
		if arg == "off" || arg == "0" {
			sh.c.SetSlowQueryLog(0, nil)
			fmt.Fprintln(sh.out, "slow-query log: off")
			return true
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			fmt.Fprintln(sh.out, "error: .slowlog needs a positive duration (e.g. 100ms) or 'off'")
			return true
		}
		sh.c.SetSlowQueryLog(d, nil)
		fmt.Fprintf(sh.out, "slow-query log: threshold %v\n", d)
		return true
	case line == ".slow":
		entries := sh.c.SlowQueries()
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
	res, err := sh.c.QueryContext(context.Background(), src,
		sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sh.method}})
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	cached := ""
	if res.CachedPlan {
		cached = ", cached plan"
	}
	fmt.Fprintf(sh.out, "%d matches (optimize %v, execute %v%s)\n",
		res.Count, res.OptimizeTime, res.ExecuteTime, cached)
	printed := 0
	for _, seg := range res.Segments {
		for r := 0; r < seg.Len(); r++ {
			if printed >= sh.limit {
				fmt.Fprintf(sh.out, "... and %d more\n", res.Count-sh.limit)
				return
			}
			var row []byte
			for u, id := range seg.Row(r) {
				if u > 0 {
					row = append(row, ", "...)
				}
				row = sjos.AppendCell(row, seg.TagName(id), seg.Value(id), id)
			}
			fmt.Fprintf(sh.out, "  (%s)\n", row)
			printed++
		}
	}
}

func (sh *shell) runXQuery(src string) {
	res, err := sh.c.XQueryContext(context.Background(), src,
		sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sh.method}})
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
		parts := make([]string, len(row.Nodes))
		for j, id := range row.Nodes {
			// The corpus is read-only: its current version is the one the
			// query ran on.
			if v, _ := sh.c.Value(row.DocID, id); v != "" {
				parts[j] = fmt.Sprintf("%q", v)
			} else {
				tag, _ := sh.c.TagName(row.DocID, id)
				parts[j] = fmt.Sprintf("%s#%d", tag, id)
			}
		}
		fmt.Fprintf(sh.out, "  [%s]\n", strings.Join(parts, ", "))
	}
}
