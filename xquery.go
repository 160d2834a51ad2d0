package sjos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sjos/internal/xquery"
)

// XQueryResult is the outcome of an XQuery-subset evaluation.
type XQueryResult struct {
	// Rows holds one row per distinct binding of the query's variables
	// and return paths, in document order: DocID and Doc name the document,
	// and Nodes holds the RETURN slots, in the RETURN clause's order. They
	// are deduplicated from the pattern's matches, so there is no count-only
	// XQuery: XQueryContext rejects QueryOptions.CountOnly.
	Rows []CorpusMatch
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

// XQueryContext compiles a FLWOR-subset query (see internal/xquery's docs;
// the paper's §2.1 translation), optimizes the resulting pattern through the
// plan cache with opts.Method and evaluates it; cancelling ctx aborts the
// optimization or the execution. FLWOR semantics: WHERE branches are
// existential, so rows are deduplicated over the bindings of the FOR
// variables and RETURN paths, within each document. opts.Limit caps the
// underlying pattern matches, not the deduplicated rows. The rows are the
// result, so opts.CountOnly is an error.
//
//	res, err := c.XQueryContext(ctx, `
//	    for $m in //manager, $e in $m//employee
//	    where $e/salary >= 50000
//	    return $m/name, $e/name`,
//	    sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP}})
func (c *Corpus) XQueryContext(ctx context.Context, src string, opts QueryOptions) (*XQueryResult, error) {
	if opts.CountOnly {
		return nil, errors.New("sjos: XQueryContext does not take QueryOptions.CountOnly: its rows are deduplicated from the matches")
	}
	q, err := xquery.Compile(src)
	if err != nil {
		return nil, err
	}
	qr, err := c.queryPattern(ctx, q.Pattern, opts)
	if err != nil {
		return nil, fmt.Errorf("sjos: evaluating compiled xquery pattern: %w", err)
	}
	// Projection slots: the FOR variables (for dedup identity) followed
	// by the RETURN nodes; only RETURN slots are exposed per row. The
	// variable nodes are sorted into pattern-node order so the dedup key
	// is canonical rather than dependent on Go's randomised map iteration
	// order.
	keyNodes := make([]int, 0, len(q.Vars))
	for _, v := range q.Vars {
		keyNodes = append(keyNodes, v)
	}
	sort.Ints(keyNodes)
	seen := make(map[string]bool)
	res := &XQueryResult{
		Pattern:      q.Pattern,
		Vars:         q.Vars,
		ReturnNodes:  q.Return,
		PlanText:     qr.PlanText,
		OptimizeTime: qr.OptimizeTime,
		ExecuteTime:  qr.ExecuteTime,
	}
	keyBuf := make([]byte, 0, 64)
	for i := range qr.Segments {
		seg := &qr.Segments[i]
		// Node IDs are document-local: two documents' rows never merge.
		clear(seen)
		for r, n := 0, seg.Len(); r < n; r++ {
			match := seg.Row(r)
			keyBuf = keyBuf[:0]
			for _, u := range keyNodes {
				keyBuf = fmt.Appendf(keyBuf, "%d,", match[u])
			}
			for _, u := range q.Return {
				keyBuf = fmt.Appendf(keyBuf, "%d,", match[u])
			}
			k := string(keyBuf)
			if seen[k] {
				continue
			}
			seen[k] = true
			row := make(Match, len(q.Return))
			for j, u := range q.Return {
				row[j] = match[u]
			}
			res.Rows = append(res.Rows, CorpusMatch{DocID: seg.DocID, Doc: seg.Doc, Nodes: row})
		}
	}
	return res, nil
}
