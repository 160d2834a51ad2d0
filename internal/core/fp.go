package core

import (
	"context"

	"sjos/internal/cost"
	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// fp is the FP search (MethodFP). It "picks the pattern up" at each
// candidate output node N, making N the root; the best pipelined plan for
// each re-rooted subtree is computed recursively (memoised per directed
// edge), and the order in which the child subtrees join with N is chosen by
// enumerating permutations. The subtree recursion polls ctx, and a cancelled
// search returns ctx's error instead of a plan.
func fp(ctx context.Context, pat *pattern.Pattern, est *Estimator, model cost.Model) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := newSpace(pat, est, model)
	if sp.numEdges == 0 {
		return sp.singleNode("FP"), nil
	}
	f := &fpSearch{sp: sp, memo: make(map[[2]int]*fpPlan), ctx: ctx}
	var best *fpPlan
	if r := pat.OrderBy; r != pattern.NoNode {
		best = f.subtree(r, pattern.NoNode)
	} else {
		for r := 0; r < pat.N(); r++ {
			cand := f.subtree(r, pattern.NoNode)
			if best == nil || cand.cost < best.cost {
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

// fpPlan is a memoised sub-result: the best fully-pipelined plan for one
// directed subtree, with its output ordered by the subtree root.
type fpPlan struct {
	node *plan.Node
	cost float64 // cumulative: index accesses + joins of the subtree
	mask uint64  // pattern nodes covered
	card float64 // ClusterCard(mask)
}

type fpSearch struct {
	sp       *space
	memo     map[[2]int]*fpPlan // (root, excludedNeighbor) -> best plan
	counters Counters

	ctx       context.Context
	calls     int  // subtree invocations, for periodic ctx polling
	cancelled bool // once set, the search short-circuits to stub plans
}

// subtree returns the best pipelined plan for the sub-pattern reachable
// from v without crossing the neighbor `from` (pattern.NoNode for the whole
// pattern), producing output ordered by v.
func (f *fpSearch) subtree(v, from int) *fpPlan {
	if !f.cancelled {
		f.calls++
		if f.calls%ctxCheckInterval == 0 && f.ctx.Err() != nil {
			f.cancelled = true
		}
	}
	if f.cancelled {
		// Unwind with an unmemoised stub; fp discards it and returns the
		// context's error.
		return &fpPlan{node: plan.NewIndexScan(v), mask: 1 << uint(v)}
	}
	key := [2]int{v, from}
	if p, ok := f.memo[key]; ok {
		return p
	}
	sp := f.sp
	leaf := plan.NewIndexScan(v)
	leaf.EstCard = sp.est.NodeCard(v)
	leaf.EstCost = sp.model.IndexAccess(leaf.EstCard)

	var kids []int
	for _, nb := range sp.pat.Neighbors(v) {
		if nb != from {
			kids = append(kids, nb)
		}
	}
	if len(kids) == 0 {
		p := &fpPlan{node: leaf, cost: leaf.EstCost, mask: 1 << uint(v), card: leaf.EstCard}
		f.memo[key] = p
		f.counters.StatusesGenerated++
		return p
	}
	subs := make([]*fpPlan, len(kids))
	for i, c := range kids {
		subs[i] = f.subtree(c, v)
	}
	var best *fpPlan
	permute(len(kids), func(order []int) {
		f.counters.PlansConsidered++
		acc := leaf
		accMask, accCard := uint64(1)<<uint(v), leaf.EstCard
		total := leaf.EstCost
		for _, idx := range order {
			c := kids[idx]
			sub := subs[idx]
			total += sub.cost
			var j *plan.Node
			var joinCost float64
			// One estimate per join: its inputs' cardinalities are the
			// previous join's output and the memoised subtree's.
			accMask |= sub.mask
			cardAB := sp.est.ClusterCard(accMask)
			if e, _ := sp.pat.EdgeBetween(v, c); sp.pat.Parent[e] == v {
				// v is the ancestor: Anc keeps the result ordered by v.
				joinCost = sp.model.StackTreeAnc(accCard, sub.card, cardAB)
				j = plan.NewJoin(acc, sub.node, v, c, sp.pat.Axis[e], plan.AlgoAnc)
			} else {
				// c is the ancestor: Desc output is ordered by the
				// descendant v.
				joinCost = sp.model.StackTreeDesc(sub.card, accCard, cardAB)
				j = plan.NewJoin(sub.node, acc, c, v, sp.pat.Axis[v], plan.AlgoDesc)
			}
			total += joinCost
			j.EstCard = cardAB
			j.EstCost = total
			acc, accCard = j, cardAB
		}
		if best == nil || total < best.cost {
			best = &fpPlan{node: acc, cost: total, mask: accMask, card: accCard}
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
