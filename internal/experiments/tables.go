package experiments

import (
	"context"
	"fmt"
	"time"

	"sjos"
)

// Cell is one (optimization time, evaluation time) measurement of Table 1.
type Cell struct {
	Opt     time.Duration
	Eval    time.Duration
	EstCost float64
	Matches int
}

// Table1Row holds one query's measurements across all algorithms plus the
// bad-plan baseline.
type Table1Row struct {
	Query   Query
	Cells   map[string]Cell // keyed by method name
	BadEval time.Duration
	BadEst  float64
}

// RunQuery measures one (query, method) cell: optimization time and the
// chosen plan's execution time.
func RunQuery(db *sjos.Corpus, q Query, m sjos.Method) (Cell, error) {
	pat, err := sjos.ParsePattern(q.Source)
	if err != nil {
		return Cell{}, fmt.Errorf("%s: %w", q.ID, err)
	}
	var res *sjos.OptimizeResult
	opt, err := timeIt(optRepeat, func() error {
		var e error
		res, e = db.OptimizeContext(context.Background(), pat, m, 0)
		return e
	})
	if err != nil {
		return Cell{}, fmt.Errorf("%s %v: %w", q.ID, m, err)
	}
	var n int
	eval, err := timeIt(evalRepeat, func() error {
		r, e := db.Run(context.Background(), pat, res.Plan, sjos.QueryOptions{CountOnly: true})
		if e == nil {
			n = r.Count
		}
		return e
	})
	if err != nil {
		return Cell{}, fmt.Errorf("%s %v execute: %w", q.ID, m, err)
	}
	return Cell{Opt: opt, Eval: eval, EstCost: res.Cost, Matches: n}, nil
}

// RunBadPlan measures the bad-plan baseline for a query.
func RunBadPlan(db *sjos.Corpus, q Query) (time.Duration, float64, error) {
	pat, err := sjos.ParsePattern(q.Source)
	if err != nil {
		return 0, 0, err
	}
	bad, err := db.BadPlan(pat, BadPlanSamples, badPlanSeed)
	if err != nil {
		return 0, 0, err
	}
	// Single shot: bad plans run 10-100× longer than good ones, so
	// scheduler noise is irrelevant and repetition would dominate the
	// whole table's wall time at large folds.
	eval, err := timeIt(1, func() error {
		_, e := db.Run(context.Background(), pat, bad.Plan, sjos.QueryOptions{CountOnly: true})
		return e
	})
	return eval, bad.Cost, err
}

// Table1 regenerates the paper's Table 1: for every query, optimization and
// evaluation time under each algorithm, plus the bad-plan evaluation time.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, q := range Queries() {
		db, err := Dataset(q.Dataset, 1)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Query: q, Cells: map[string]Cell{}}
		var matches = -1
		for _, m := range Methods() {
			cell, err := RunQuery(db, q, m)
			if err != nil {
				return nil, err
			}
			if matches == -1 {
				matches = cell.Matches
			} else if cell.Matches != matches {
				return nil, fmt.Errorf("%s: %v found %d matches, others %d",
					q.ID, m, cell.Matches, matches)
			}
			row.Cells[m.String()] = cell
		}
		row.BadEval, row.BadEst, err = RunBadPlan(db, q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Col is one algorithm's search effort on Q.Pers.3.d.
type Table2Col struct {
	Method          string
	Opt             time.Duration
	PlansConsidered int
}

// Table2 regenerates the paper's Table 2 (optimization time and number of
// alternative plans considered) for the given query id; the paper reports
// Q.Pers.3.d.
func Table2(queryID string) ([]Table2Col, error) {
	q, err := QueryByID(queryID)
	if err != nil {
		return nil, err
	}
	db, err := Dataset(q.Dataset, 1)
	if err != nil {
		return nil, err
	}
	pat, err := sjos.ParsePattern(q.Source)
	if err != nil {
		return nil, err
	}
	var cols []Table2Col
	for _, m := range MethodsTable2() {
		var res *sjos.OptimizeResult
		opt, err := timeIt(optRepeat, func() error {
			var e error
			res, e = db.OptimizeContext(context.Background(), pat, m, 0)
			return e
		})
		if err != nil {
			return nil, err
		}
		cols = append(cols, Table2Col{
			Method:          m.String(),
			Opt:             opt,
			PlansConsidered: res.Counters.PlansConsidered,
		})
	}
	return cols, nil
}

// Table3Row is one algorithm's plan execution time across folding factors.
type Table3Row struct {
	Method string
	Eval   map[int]time.Duration // folding factor -> execution time
}

// Table3 regenerates the paper's Table 3: the execution time of each
// algorithm's chosen plan for Q.Pers.3.d as the data set is folded. The
// paper uses folds ×1, ×10, ×100 and ×500.
func Table3(folds []int) ([]Table3Row, error) {
	q, err := QueryByID(PersQuery3)
	if err != nil {
		return nil, err
	}
	pat, err := sjos.ParsePattern(q.Source)
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, len(Methods())+1)
	for _, m := range Methods() {
		rows = append(rows, Table3Row{Method: m.String(), Eval: map[int]time.Duration{}})
	}
	bad := Table3Row{Method: "bad plan", Eval: map[int]time.Duration{}}
	for _, fold := range folds {
		db, err := Dataset(q.Dataset, fold)
		if err != nil {
			return nil, err
		}
		for i, m := range Methods() {
			// Optimize on the folded data (statistics change with
			// fold, which is exactly the paper's point: larger data
			// flips the optimal plan from left-deep to bushy).
			res, err := db.OptimizeContext(context.Background(), pat, m, 0)
			if err != nil {
				return nil, err
			}
			eval, err := timeIt(evalRepeat, func() error {
				_, e := db.Run(context.Background(), pat, res.Plan,
					sjos.QueryOptions{CountOnly: true})
				return e
			})
			if err != nil {
				return nil, err
			}
			rows[i].Eval[fold] = eval
		}
		evalBad, _, err := RunBadPlan(db, q)
		if err != nil {
			return nil, err
		}
		bad.Eval[fold] = evalBad
	}
	return append(rows, bad), nil
}
