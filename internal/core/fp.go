package core

import (
	"context"

	"sjos/internal/pattern"
)

// fp is the FP search (MethodFP), on sp's leaves and joins; DPAP-EB falls
// back to it on its own space. It "picks the pattern up" at each candidate
// output node N, making N the root; the best pipelined plan for each
// re-rooted subtree is computed recursively (memoised per directed edge),
// and the order in which the child subtrees join with N is chosen by
// enumerating permutations. The subtree recursion polls ctx, and a cancelled
// search returns ctx's error instead of a plan.
func (sp *space) fp(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sp.numEdges == 0 {
		return sp.singleNode("FP"), nil
	}
	f := &fpSearch{sp: sp, memo: make(map[[2]int]rooted), ctx: ctx}
	var best rooted
	if r := sp.pat.OrderBy; r != pattern.NoNode {
		best = f.subtree(r, pattern.NoNode)
	} else {
		for r := 0; r < sp.n; r++ {
			cand := f.subtree(r, pattern.NoNode)
			if best.node == nil || cand.cost < best.cost {
				best = cand
			}
		}
	}
	if f.cancelled {
		return nil, ctx.Err()
	}
	return &Result{
		Plan:      best.node,
		Cost:      best.cost,
		Algorithm: "FP",
		Counters:  f.counters,
	}, nil
}

type fpSearch struct {
	sp       *space
	memo     map[[2]int]rooted // (root, excludedNeighbor) -> best plan
	counters Counters

	ctx       context.Context
	calls     int  // subtree invocations, for periodic ctx polling
	cancelled bool // once set, the search short-circuits to stub plans
}

// subtree returns the best pipelined plan for the sub-pattern reachable
// from v without crossing the neighbor `from` (pattern.NoNode for the whole
// pattern), producing output ordered by v.
func (f *fpSearch) subtree(v, from int) rooted {
	sp := f.sp
	if !f.cancelled {
		f.calls++
		if f.calls%ctxCheckInterval == 0 && f.ctx.Err() != nil {
			f.cancelled = true
		}
	}
	if f.cancelled {
		// Unwind with an unmemoised stub; fp discards it and returns the
		// context's error.
		return sp.rootLeaf(v)
	}
	key := [2]int{v, from}
	if p, ok := f.memo[key]; ok {
		return p
	}
	leaf := sp.rootLeaf(v)
	var kids []int
	for _, nb := range sp.pat.Neighbors(v) {
		if nb != from {
			kids = append(kids, nb)
		}
	}
	if len(kids) == 0 {
		f.memo[key] = leaf
		f.counters.StatusesGenerated++
		return leaf
	}
	subs := make([]rooted, len(kids))
	for i, c := range kids {
		subs[i] = f.subtree(c, v)
	}
	var best rooted
	permute(len(kids), func(order []int) {
		f.counters.PlansConsidered++
		acc := leaf
		for _, idx := range order {
			acc = sp.attach(acc, v, subs[idx], false)
		}
		if best.node == nil || acc.cost < best.cost {
			best = acc
		}
	})
	f.counters.StatusesGenerated++
	f.counters.StatusesExpanded++
	f.memo[key] = best
	return best
}

// permute enumerates all permutations of 0..n-1 (Heap's algorithm),
// invoking yield with each ordering. The slice passed to yield is reused.
func permute(n int, yield func([]int)) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			yield(idx)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				idx[i], idx[k-1] = idx[k-1], idx[i]
			} else {
				idx[0], idx[k-1] = idx[k-1], idx[0]
			}
		}
	}
	rec(n)
}
