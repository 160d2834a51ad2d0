package core

import (
	"fmt"

	"sjos/internal/cost"
	"sjos/internal/pattern"
)

// Census quantifies a pattern's status search space — the measurable form
// of the paper's §3 complexity analysis (O(n·2ⁿ) statuses for DP, with a
// large deadend fraction that the Lookahead Rule avoids generating).
type Census struct {
	// Statuses counts the distinct reachable statuses (including start
	// and final statuses).
	Statuses int
	// Deadends counts reachable non-final statuses with no possible
	// moves (Definition 6).
	Deadends int
	// Finals counts distinct final statuses.
	Finals int
	// PerLevel holds the status count per level (number of joined edges).
	PerLevel []int
}

// CensusSearchSpace enumerates every status reachable from the start status
// by breadth-first expansion, ignoring costs. Intended for analysis and
// tests; the space is exponential in the number of pattern edges, so this
// is restricted to patterns with at most 12 edges.
func CensusSearchSpace(pat *pattern.Pattern) (*Census, error) {
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	if pat.NumEdges() > 12 {
		return nil, fmt.Errorf("core: census limited to 12 edges, pattern has %d", pat.NumEdges())
	}
	// Costs are irrelevant; a uniform estimator keeps expansion defined.
	nodeCard := make([]float64, pat.N())
	edgeSel := make([]float64, pat.N())
	for i := range nodeCard {
		nodeCard[i], edgeSel[i] = 10, 0.1
	}
	est, err := NewManualEstimator(pat, nodeCard, edgeSel)
	if err != nil {
		return nil, err
	}
	sp := newSpace(pat, est, cost.DefaultModel())

	c := &Census{PerLevel: make([]int, pat.NumEdges()+1)}
	// Statuses are appended as they are first seen, so walking the slab in
	// index order is the breadth-first traversal.
	sp.start()
	for si := int32(0); si < sp.count; si++ {
		s := *sp.at(si)
		c.Statuses++
		c.PerLevel[popcount(s.edges)]++
		if s.edges == sp.allEdges {
			c.Finals++
			continue
		}
		cands := sp.expand(s, moveOpts{}, noBound)
		if len(cands) == 0 {
			c.Deadends++
		}
		for _, cand := range cands {
			if seen, at := sp.visited.find(cand.edges, cand.orderMask); seen < 0 {
				sp.visited.put(at, cand.edges, cand.orderMask, sp.add(cand, si))
			}
		}
	}
	return c, nil
}
