package sjos

import (
	"context"

	"sjos/internal/exec"
)

// Test-local conveniences over Run, replacing the removed Execute* wrappers:
// the tests below exercise the Run API exclusively, these just keep the
// call sites compact.

func execAll(db *Database, pat *Pattern, p *Plan) ([]Match, ExecStats, error) {
	res, err := db.Run(context.Background(), pat, p, RunOptions{})
	if err != nil {
		return nil, ExecStats{}, err
	}
	return res.Matches, res.Stats, nil
}

func execCount(db *Database, pat *Pattern, p *Plan) (int, ExecStats, error) {
	res, err := db.Run(context.Background(), pat, p, RunOptions{CountOnly: true})
	if err != nil {
		return 0, ExecStats{}, err
	}
	return res.Count, res.Stats, nil
}

func execLimit(db *Database, pat *Pattern, p *Plan, n int) ([]Match, ExecStats, error) {
	if n <= 0 {
		return []Match{}, ExecStats{}, nil
	}
	res, err := db.Run(context.Background(), pat, p, RunOptions{ExecOptions: ExecOptions{Limit: n}})
	if err != nil {
		return nil, ExecStats{}, err
	}
	return res.Matches, res.Stats, nil
}

// ScanArm returns a copy of p with every value-index probe leaf turned back
// into a tag scan + filter: the same join order, only the access path
// differs. Exported for the black-box benchmarks.
func ScanArm(p *Plan) *Plan {
	if p == nil {
		return nil
	}
	cp := *p
	cp.ValueIndex = false
	cp.Left, cp.Right = ScanArm(p.Left), ScanArm(p.Right)
	return &cp
}

// referenceMatches is the oracle of the differential suites: the brute-force
// matcher over the handle's current document, which shares no code with the
// planner or the executor. It runs on the forest the document is stored in
// (no pattern node matches the synthetic root) and rebases every binding
// into the document's own numbering.
func referenceMatches(db *Database, pat *Pattern) []Match {
	sn, span := db.member()
	ms := exec.ReferenceMatches(sn.doc, pat)
	for _, m := range ms {
		for u := range m {
			m[u] -= span.First
		}
	}
	return ms
}
