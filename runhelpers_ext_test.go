package sjos_test

import (
	"context"

	"sjos"
)

// Benchmark-local conveniences over Run, replacing the removed Execute*
// wrappers (black-box twin of runhelpers_test.go).

func execCount(db *sjos.Database, pat *sjos.Pattern, p *sjos.Plan) (int, sjos.ExecStats, error) {
	res, err := db.Run(context.Background(), pat, p, sjos.RunOptions{CountOnly: true})
	if err != nil {
		return 0, sjos.ExecStats{}, err
	}
	return res.Count, res.Stats, nil
}

func execLimit(db *sjos.Database, pat *sjos.Pattern, p *sjos.Plan, n int) ([]sjos.Match, sjos.ExecStats, error) {
	if n <= 0 {
		return []sjos.Match{}, sjos.ExecStats{}, nil
	}
	res, err := db.Run(context.Background(), pat, p, sjos.RunOptions{ExecOptions: sjos.ExecOptions{Limit: n}})
	if err != nil {
		return nil, sjos.ExecStats{}, err
	}
	return res.Matches, res.Stats, nil
}
