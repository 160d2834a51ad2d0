package core

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"sjos/internal/cost"
	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// ctxCheckInterval is how many status expansions a search performs between
// context polls. Cancellation latency is therefore bounded by the cost of
// expanding that many statuses — microseconds — while the poll itself stays
// off the per-candidate hot path.
const ctxCheckInterval = 64

// errNoPlan is returned if a search finds no complete plan; this cannot
// happen for well-formed patterns (Theorem 3.1 guarantees at least the
// fully-pipelined plans exist) and indicates an internal inconsistency.
var errNoPlan = errors.New("core: search completed without finding a plan")

// singleNode handles the degenerate one-node pattern shared by all
// algorithms: the plan is a bare index scan.
func (sp *space) singleNode(name string) *Result {
	leaf := &plan.Node{}
	sp.leaf(leaf, 0)
	return &Result{Plan: leaf, Cost: sp.scanCost, Algorithm: name}
}

// dp is the DP search (MethodDP). ctx is polled as the DP table expands
// (every ctxCheckInterval status expansions), so runaway searches on large
// patterns can be abandoned mid-level.
func dp(ctx context.Context, pat *pattern.Pattern, est *Estimator, model cost.Model) (*Result, error) {
	sp := newSpace(pat, est, model)
	if sp.numEdges == 0 {
		return sp.singleNode("DP"), nil
	}
	var counters Counters
	// byKey orders statuses deterministically so equal-cost ties always
	// break the same way.
	byKey := func(a, b int32) int { return cmp.Compare(sp.at(a).key(), sp.at(b).key()) }
	level := []int32{sp.start()} // the current level's statuses, by key
	for lv := 0; lv < sp.numEdges; lv++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first := sp.count // the next level is the slab from here on
		for _, si := range level {
			counters.StatusesExpanded++
			if counters.StatusesExpanded%ctxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for _, c := range sp.expand(*sp.at(si), moveOpts{}, noBound) {
				counters.PlansConsidered++
				oi, at := sp.visited.find(c.edges, c.orderMask)
				if oi < 0 {
					counters.StatusesGenerated++
					sp.visited.put(at, c.edges, c.orderMask, sp.add(c, si))
				} else if old := sp.at(oi); !(old.cost <= c.cost) {
					old.cost, old.prev, old.via = c.cost, si, c.via
				}
			}
		}
		level = level[:0]
		for i := first; i < sp.count; i++ {
			level = append(level, i)
		}
		slices.SortFunc(level, byKey)
	}
	// The last level holds the final statuses. Final-move generation already
	// folded in any sort required by the query's OrderBy, so their costs are
	// directly comparable.
	if len(level) == 0 {
		return nil, errNoPlan
	}
	best := level[0]
	for _, si := range level[1:] {
		if sp.at(si).cost < sp.at(best).cost {
			best = si
		}
	}
	return &Result{
		Plan:      sp.finalize(best),
		Cost:      sp.at(best).cost,
		Algorithm: "DP",
		Counters:  counters,
	}, nil
}
