package sjos_test

import (
	"context"

	"sjos"
)

// Benchmark-local conveniences over Run (black-box twin of
// runhelpers_test.go).

func execCount(c *sjos.Corpus, pat *sjos.Pattern, p *sjos.Plan) (int, sjos.ExecStats, error) {
	res, err := c.Run(context.Background(), pat, p, sjos.QueryOptions{CountOnly: true})
	if err != nil {
		return 0, sjos.ExecStats{}, err
	}
	return res.Count, res.Stats, nil
}

func execLimit(c *sjos.Corpus, pat *sjos.Pattern, p *sjos.Plan, n int) ([]sjos.CorpusMatch, sjos.ExecStats, error) {
	if n <= 0 {
		return []sjos.CorpusMatch{}, sjos.ExecStats{}, nil
	}
	res, err := c.Run(context.Background(), pat, p, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: n}})
	if err != nil {
		return nil, sjos.ExecStats{}, err
	}
	return res.Matches, res.Stats, nil
}
