package core

import (
	"context"
	"fmt"

	"sjos/internal/cost"
	"sjos/internal/pattern"
)

// dppConfig selects a member of the DPP/DPAP family; the search loop is
// shared.
type dppConfig struct {
	name         string
	lookahead    bool // the Lookahead Rule: never generate deadend statuses
	te           int  // DPAP-EB expansion bound per level; 0 = unlimited
	leftDeep     bool // DPAP-LD: single growing cluster
	pipelineOnly bool // sorted-move ablation: only sort-free moves

	// trace, when non-nil, records every search decision (see trace.go).
	trace *[]TraceEvent
}

// emit appends a trace event if tracing is enabled.
func (cfg *dppConfig) emit(kind TraceKind, edges, orderMask uint32, level int, cost float64) {
	if cfg.trace != nil {
		*cfg.trace = append(*cfg.trace, TraceEvent{
			Kind: kind, Edges: edges, OrderMask: orderMask, Level: level, Cost: cost,
		})
	}
}

// dpapEB is the DPAP-EB search with expansion bound te, which must be at
// least 1.
func dpapEB(ctx context.Context, pat *pattern.Pattern, est *Estimator, model cost.Model, te int) (*Result, error) {
	if te < 1 {
		return nil, fmt.Errorf("core: DPAP-EB expansion bound %d, want >= 1", te)
	}
	return dppSearch(ctx, pat, est, model, dppConfig{name: "DPAP-EB", lookahead: true, te: te})
}

func dppSearch(ctx context.Context, pat *pattern.Pattern, est *Estimator, model cost.Model, cfg dppConfig) (*Result, error) {
	sp := newSpace(pat, est, model)
	if sp.numEdges == 0 {
		return sp.singleNode(cfg.name), nil
	}
	var counters Counters
	// Candidates the search would only discard — deadends under the
	// Lookahead Rule, and below those dead on arrival — are left out by
	// expand itself, unless a trace wants to see each of them go.
	opts := moveOpts{
		leftDeepOnly: cfg.leftDeep,
		pipelineOnly: cfg.pipelineOnly,
		liveOnly:     cfg.lookahead && cfg.trace == nil,
	}

	// The priority list (kernel.queue): minimum Cost+ubCost first, with
	// deterministic tie-breaking on the status key.
	sp.enqueue(sp.start())

	bestFinal := int32(-1)
	minCost := 0.0
	haveMin := false

	// DPAP-EB bookkeeping.
	expandedAt := make([]int, sp.numEdges+1)
	saturated := -1 // highest level whose expansion bound was reached

	pops := 0
	for len(sp.queue) > 0 {
		pops++
		if pops%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		si := sp.dequeue()
		s := *sp.at(si)
		level := popcount(s.edges)
		if haveMin && s.cost >= minCost {
			cfg.emit(TracePruneDead, s.edges, s.orderMask, level, s.cost)
			continue // "dead": cannot improve on the best full plan
		}
		if s.edges == sp.allEdges {
			cfg.emit(TraceFinal, s.edges, s.orderMask, level, s.cost)
			// The best final status's cost is read from the slab: a
			// cheaper route may have lowered it since it set minCost.
			if bestFinal < 0 || s.cost < sp.at(bestFinal).cost {
				bestFinal = si
				minCost, haveMin = s.cost, true
			}
			continue
		}
		if cfg.te > 0 {
			if level < saturated || expandedAt[level] >= cfg.te {
				continue
			}
			expandedAt[level]++
			if expandedAt[level] == cfg.te && level > saturated {
				saturated = level
			}
		}
		counters.StatusesExpanded++
		cfg.emit(TraceExpand, s.edges, s.orderMask, level, s.cost)
		bound := noBound
		if haveMin && cfg.trace == nil {
			bound = minCost
		}
		for _, c := range sp.expand(s, opts, bound) {
			if haveMin && c.cost >= minCost {
				cfg.emit(TracePruneDead, c.edges, c.orderMask, level+1, c.cost)
				continue // dead on arrival: pruned before being considered
			}
			if cfg.lookahead && c.deadend {
				cfg.emit(TraceDeadend, c.edges, c.orderMask, level+1, c.cost)
				continue // Lookahead Rule: the successor is a deadend
			}
			oi, at := sp.visited.find(c.edges, c.orderMask)
			if oi >= 0 {
				old := sp.at(oi)
				if old.cost <= c.cost {
					cfg.emit(TraceWorse, c.edges, c.orderMask, level+1, c.cost)
					continue
				}
				cfg.emit(TraceImprove, c.edges, c.orderMask, level+1, c.cost)
				// A cheaper route to a known status: update it in
				// place. If it was already expanded it re-enters the
				// queue so its successors are re-costed. The sub-plan
				// counts as considered — it supersedes the best route.
				counters.PlansConsidered++
				old.cost, old.prev, old.via = c.cost, si, c.via
				sp.enqueue(oi)
				continue
			}
			counters.StatusesGenerated++
			counters.PlansConsidered++
			cfg.emit(TraceGenerate, c.edges, c.orderMask, level+1, c.cost)
			ni := sp.add(c, si)
			sp.visited.put(at, c.edges, c.orderMask, ni)
			sp.enqueue(ni)
		}
	}
	if bestFinal < 0 {
		if cfg.te > 0 {
			// A very tight expansion bound can strand the search in
			// deadends-at-depth before any full plan is reached. Fall
			// back to the (cheap, always-successful) FP algorithm so
			// DPAP-EB keeps its "always returns a plan" contract.
			fp, err := sp.fp(ctx)
			if err != nil {
				return nil, err
			}
			fp.Algorithm = cfg.name
			fp.Counters.PlansConsidered += counters.PlansConsidered
			fp.Counters.StatusesGenerated += counters.StatusesGenerated
			fp.Counters.StatusesExpanded += counters.StatusesExpanded
			return fp, nil
		}
		return nil, errNoPlan
	}
	return &Result{
		Plan:      sp.finalize(bestFinal),
		Cost:      sp.at(bestFinal).cost,
		Algorithm: cfg.name,
		Counters:  counters,
	}, nil
}
