package sjos

import (
	"context"
	"fmt"
	"strings"

	"sjos/internal/core"
	"sjos/internal/cost"
)

// Explain optimizes pat with every algorithm and renders a comparison: per
// algorithm the estimated cost, search effort, plan shape classification,
// and the plan tree itself. It is the facade's EXPLAIN statement.
func (c *Corpus) Explain(pat *Pattern) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern: %s\n", pat.String())
	for _, m := range []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy} {
		res, err := c.OptimizeContext(context.Background(), pat, m, 0)
		if err != nil {
			return "", fmt.Errorf("sjos: explain %v: %w", m, err)
		}
		shape := "bushy"
		if res.Plan.LeftDeep() {
			shape = "left-deep"
		}
		pipe := "blocking"
		if res.Plan.FullyPipelined() {
			pipe = "fully-pipelined"
		}
		fmt.Fprintf(&sb, "\n%s: estimated cost %.0f, %d plans considered, %s, %s\n",
			m, res.Cost, res.Counters.PlansConsidered, shape, pipe)
		sb.WriteString(res.Plan.Format(pat))
	}
	return sb.String(), nil
}

// ExplainAnalyze optimizes pat with the given method, executes the chosen
// plan with per-operator instrumentation, and renders the plan-shaped
// trace: wall time, batches, and actual vs estimated output rows per
// operator (est/actual drift is the optimizer's core feedback signal) —
// the library's EXPLAIN ANALYZE. It reports total matches and the
// execution's buffer-pool (summed over every replica store) and plan-cache
// behaviour alongside. The execution is a count-only traced Run, so it
// passes the same envelope — admission, metrics, panic recovery — as any
// query.
func (c *Corpus) ExplainAnalyze(pat *Pattern, m Method) (string, error) {
	res, err := c.OptimizeContext(context.Background(), pat, m, 0)
	if err != nil {
		return "", err
	}
	before := c.Metrics().Pool
	rr, err := c.run(context.Background(), pat, res.Plan, QueryOptions{ExecOptions: ExecOptions{Trace: true}, CountOnly: true})
	if err != nil {
		return "", err
	}
	after := c.Metrics().Pool
	var sb strings.Builder
	fmt.Fprintf(&sb, "pattern: %s\n%s plan, estimated cost %.0f, %d matches\n",
		pat.String(), m, res.Cost, rr.Count)
	sb.WriteString(rr.Trace.Format())
	worst, at := rr.Trace.MaxDrift()
	fmt.Fprintf(&sb, "max drift: %.2fx at %s %s\n", worst, at.Op, at.Detail)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses) * 100
	}
	fmt.Fprintf(&sb, "buffer pool: %d hits, %d misses (%.1f%% hit rate)\n",
		hits, misses, rate)
	cs := c.svc.cache.Stats()
	fmt.Fprintf(&sb, "plan cache: %d/%d entries, %d hits, %d misses, %d coalesced, %d evicted\n",
		cs.Entries, cs.Capacity, cs.Hits, cs.Misses, cs.Coalesced, cs.Evictions)
	return sb.String(), nil
}

// TraceDPP runs a traced DPP search for pat and renders every expansion,
// generation and pruning decision — the machine-generated counterpart of
// the paper's Figure 4 optimization walk-through. Intended for debugging
// and teaching; the chosen plan is appended after the trace.
func (c *Corpus) TraceDPP(pat *Pattern) (string, error) {
	stats, _ := c.svc.snapshot()
	est, err := core.NewEstimator(pat, stats)
	if err != nil {
		return "", err
	}
	res, events, err := core.DPPWithTrace(pat, est, cost.DefaultModel())
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "DPP search trace for %s (%d events)\n", pat.String(), len(events))
	sb.WriteString(core.FormatTrace(pat, events))
	fmt.Fprintf(&sb, "chosen plan (cost %.0f):\n%s", res.Cost, res.Plan.Format(pat))
	return sb.String(), nil
}

// BadPlan returns the estimated-worst of `samples` random valid plans —
// the paper's §4.2.1 baseline for quantifying optimizer value.
func (c *Corpus) BadPlan(pat *Pattern, samples int, seed int64) (*OptimizeResult, error) {
	stats, _ := c.svc.snapshot()
	est, err := core.NewEstimator(pat, stats)
	if err != nil {
		return nil, err
	}
	return core.BadPlan(pat, est, cost.DefaultModel(), samples, seed)
}

// OptimizeWithExactStats is OptimizeContext with the oracle estimator: exact
// per-node candidate counts and per-edge join selectivities computed from
// the documents, instead of positional-histogram estimates. It isolates the
// effect of estimation error on plan choice (the A2 ablation in DESIGN.md)
// and is too expensive for routine use. It reads one forest, so the corpus
// must have exactly one populated shard.
func (c *Corpus) OptimizeWithExactStats(pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	var only *dbSnap
	populated := 0
	for _, sh := range c.shards {
		if sh == nil {
			continue
		}
		if sn := sh.meta().view(); len(sn.members) > 0 {
			only = sn
			populated++
		}
	}
	if populated != 1 {
		return nil, fmt.Errorf("sjos: exact statistics read one shard's forest; this corpus has %d populated shards", populated)
	}
	// The forest holds the shard's documents and nothing else a pattern
	// node can match (its synthetic root's tag never does), so its counts
	// are the corpus's.
	est, err := core.NewOracleEstimator(pat, only.doc)
	if err != nil {
		return nil, err
	}
	return core.Optimize(context.Background(), pat, est, cost.DefaultModel(), m, &core.Options{Te: te})
}
