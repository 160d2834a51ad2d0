package sjos

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sjos/internal/xquery"
)

// XQueryResult is the outcome of an XQuery-subset evaluation.
type XQueryResult struct {
	// Rows holds one row per distinct binding of the query's variables
	// and return paths; row slots follow the RETURN clause order.
	Rows [][]NodeID
	// Pattern is the tree pattern the query compiled to.
	Pattern *Pattern
	// Vars maps variable names to pattern nodes.
	Vars map[string]int
	// ReturnNodes lists the pattern nodes projected per row slot.
	ReturnNodes []int
	// PlanText, OptimizeTime and ExecuteTime describe the underlying
	// pattern-match evaluation.
	PlanText     string
	OptimizeTime time.Duration
	ExecuteTime  time.Duration
}

// XQuery compiles a FLWOR-subset query (see internal/xquery's docs; the
// paper's §2.1 translation), optimizes the resulting pattern with method m
// and evaluates it. FLWOR semantics: WHERE branches are existential, so
// rows are deduplicated over the bindings of the FOR variables and RETURN
// paths.
//
//	rows, err := db.XQuery(`
//	    for $m in //manager, $e in $m//employee
//	    where $e/salary >= 50000
//	    return $m/name, $e/name`, sjos.MethodDPP)
func (db *Database) XQuery(src string, m Method) (*XQueryResult, error) {
	return db.XQueryContext(context.Background(), src, QueryOptions{ExecOptions: ExecOptions{Method: m}})
}

// XQueryContext is XQuery under a context and explicit query options:
// cancelling ctx aborts the optimization or execution of the compiled
// pattern, and the plan cache serves recurring query shapes. opts.Limit caps
// the underlying pattern matches, not the deduplicated rows.
func (db *Database) XQueryContext(ctx context.Context, src string, opts QueryOptions) (*XQueryResult, error) {
	c, err := xquery.Compile(src)
	if err != nil {
		return nil, err
	}
	qr, err := db.QueryPatternContext(ctx, c.Pattern, opts)
	if err != nil {
		return nil, fmt.Errorf("sjos: evaluating compiled xquery pattern: %w", err)
	}
	// Projection slots: the FOR variables (for dedup identity) followed
	// by the RETURN nodes; only RETURN slots are exposed per row. The
	// variable nodes are sorted into pattern-node order so the dedup key
	// is canonical rather than dependent on Go's randomised map iteration
	// order.
	keyNodes := make([]int, 0, len(c.Vars))
	for _, v := range c.Vars {
		keyNodes = append(keyNodes, v)
	}
	sort.Ints(keyNodes)
	seen := make(map[string]bool, len(qr.Matches))
	res := &XQueryResult{
		Pattern:      c.Pattern,
		Vars:         c.Vars,
		ReturnNodes:  c.Return,
		PlanText:     qr.PlanText,
		OptimizeTime: qr.OptimizeTime,
		ExecuteTime:  qr.ExecuteTime,
	}
	keyBuf := make([]byte, 0, 64)
	for _, match := range qr.Matches {
		keyBuf = keyBuf[:0]
		for _, u := range keyNodes {
			keyBuf = fmt.Appendf(keyBuf, "%d,", match[u])
		}
		for _, u := range c.Return {
			keyBuf = fmt.Appendf(keyBuf, "%d,", match[u])
		}
		k := string(keyBuf)
		if seen[k] {
			continue
		}
		seen[k] = true
		row := make([]NodeID, len(c.Return))
		for i, u := range c.Return {
			row[i] = match[u]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
