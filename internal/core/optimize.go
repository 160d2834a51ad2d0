package core

import (
	"context"
	"fmt"
	"strings"

	"sjos/internal/cost"
	"sjos/internal/pattern"
)

// Method selects an optimization algorithm.
type Method int

// The optimization algorithms of the paper (§3), plus the DPP′ ablation and
// the statistics-free Greedy orderer. Optimize runs any of them.
const (
	// MethodDP is the exhaustive dynamic programming algorithm of §3.1:
	// statuses are developed strictly level by level; every possible move
	// from every status is considered, and for each distinct status only
	// the cheapest way of reaching it is retained.
	MethodDP Method = iota
	// MethodDPP is Dynamic Programming with Pruning (§3.2): best-first
	// expansion ordered by Cost+ubCost, pruning of statuses whose Cost
	// reaches the best complete plan found so far, and the Lookahead Rule.
	// Like DP it searches the whole space and returns an optimal plan,
	// usually at a fraction of DP's optimization cost.
	MethodDPP
	// MethodDPPNoLookahead is DPP without the Lookahead Rule — the paper's
	// DPP′ baseline used to measure the rule's effectiveness (Table 2).
	MethodDPPNoLookahead
	// MethodDPAPEB is Dynamic Programming with Aggressive Pruning using an
	// Expansion Bound (§3.3.1): at most Options.Te statuses are expanded
	// per level, and once a level saturates no earlier level is expanded
	// again. The returned plan can be suboptimal.
	MethodDPAPEB
	// MethodDPAPLD is Dynamic Programming with Aggressive Pruning restricted
	// to left-deep statuses (§3.3.2): at most one cluster may hold more than
	// one pattern node (the growing node). The returned plan can be
	// suboptimal — the paper's experiments show this is the weakest
	// heuristic.
	MethodDPAPLD
	// MethodFP is the Fully-Pipelined algorithm (§3.4): only plans with no
	// sort operators anywhere are considered. Theorem 3.1 guarantees such
	// plans exist producing output ordered by any pattern node, so FP always
	// succeeds; it returns the cheapest non-blocking plan. When the query
	// names an OrderBy node, only plans ordered by it are considered, which
	// shrinks the search further.
	MethodFP
	// MethodGreedy is the statistics-free greedy orderer of greedy.go: one
	// pipelined plan built from pattern-visible signals, no search.
	MethodGreedy
)

// ServeMethod is the method a server plans a plan-cache miss with: xqserve's
// -method default, and what the load lane and the in-process stand-ins for
// the server plan with. FP: on the plan_cold twigs of the four-shard serving
// corpus DPAP-EB's bounded search strands and returns FP's plan, or a costlier
// one, after two to three times FP's planning (EXPERIMENTS.md "The serving
// method").
const ServeMethod = MethodFP

// String names the method as in the paper.
func (m Method) String() string {
	switch m {
	case MethodDP:
		return "DP"
	case MethodDPP:
		return "DPP"
	case MethodDPPNoLookahead:
		return "DPP'"
	case MethodDPAPEB:
		return "DPAP-EB"
	case MethodDPAPLD:
		return "DPAP-LD"
	case MethodFP:
		return "FP"
	case MethodGreedy:
		return "Greedy"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists all methods in the paper's presentation order, with the
// statistics-free Greedy orderer appended as the sixth.
func Methods() []Method {
	return []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
}

// parseableMethods lists every method ParseMethod accepts, in the order the
// error message presents them.
var parseableMethods = []Method{
	MethodDP, MethodDPP, MethodDPPNoLookahead, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy,
}

// MethodNames returns the canonical spelling of every parseable method, in
// presentation order — the list ParseMethod's error enumerates.
func MethodNames() []string {
	names := make([]string, len(parseableMethods))
	for i, m := range parseableMethods {
		names[i] = m.String()
	}
	return names
}

// ParseMethod resolves a method name (as printed by String). Matching is
// case-insensitive, and Greedy also accepts the shorthands "g" and
// "greedy". An unknown name's error enumerates the valid spellings.
func ParseMethod(s string) (Method, error) {
	for _, m := range parseableMethods {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	switch strings.ToLower(s) {
	case "g":
		return MethodGreedy, nil
	}
	return 0, fmt.Errorf("core: unknown method %q (valid: %s)", s, strings.Join(MethodNames(), ", "))
}

// Options tunes method-specific behaviour.
type Options struct {
	// Te is the DPAP-EB expansion bound. When 0, the bound defaults to
	// the number of edges in the pattern, which is the setting the
	// paper's Table 1 uses.
	Te int
}

// Optimize runs the selected algorithm and returns its chosen plan. ctx
// cancels the search: the DP level loop, the DPP/DPAP priority-queue loop
// and FP's subtree recursion all poll it, so even the exponential searches
// on large patterns abandon work promptly and return ctx's error. A nil ctx
// is treated as context.Background().
func Optimize(ctx context.Context, pat *pattern.Pattern, est *Estimator, model cost.Model, m Method, opts *Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !model.Valid() {
		return nil, fmt.Errorf("core: invalid cost model %+v", model)
	}
	switch m {
	case MethodDP:
		return dp(ctx, pat, est, model)
	case MethodDPP:
		return dppSearch(ctx, pat, est, model, dppConfig{name: "DPP", lookahead: true})
	case MethodDPPNoLookahead:
		return dppSearch(ctx, pat, est, model, dppConfig{name: "DPP'"})
	case MethodDPAPEB:
		te := 0
		if opts != nil {
			te = opts.Te
		}
		if te == 0 {
			te = pat.NumEdges()
		}
		if te < 1 {
			te = 1
		}
		return dpapEB(ctx, pat, est, model, te)
	case MethodDPAPLD:
		return dppSearch(ctx, pat, est, model, dppConfig{name: "DPAP-LD", lookahead: true, leftDeep: true})
	case MethodFP:
		return newSpace(pat, est, model).fp(ctx)
	case MethodGreedy:
		return greedy(ctx, pat, est, model)
	default:
		return nil, fmt.Errorf("core: unknown method %d", int(m))
	}
}
