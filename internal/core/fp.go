package core

import (
	"context"
	"math/bits"

	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// fp is the FP search (MethodFP), on sp's leaves and joins; DPAP-EB falls
// back to it on its own space. It "picks the pattern up" at each candidate
// output node N, making N the root; the best pipelined plan for each
// re-rooted subtree is computed recursively (memoised per directed edge),
// and the order in which the child subtrees join with N is chosen by
// enumerating permutations. A permutation is priced without building it:
// only each memoised subtree's winning order becomes plan operators. The
// subtree recursion polls ctx, and a cancelled search returns ctx's error
// instead of a plan.
func (sp *space) fp(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sp.numEdges == 0 {
		return sp.singleNode("FP"), nil
	}
	// A subtree entered at v is built at most once per excluded neighbour
	// and once whole: deg(v)+1 leaves, and deg(v) joins per memo entry but
	// one fewer where a neighbour is excluded — deg(v)² joins in all.
	size := 0
	for v := 0; v < sp.n; v++ {
		d := bits.OnesCount32(sp.incident[v])
		size += d*d + d + 1
	}
	sp.nodes = make([]plan.Node, 0, size)
	f := fpSearch{sp: sp, ctx: ctx}
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

// fpSearch is one FP search. memo holds the best plan of the sub-pattern
// entered at v without crossing the neighbour from: at v for the whole
// pattern, at n+v when from is v's parent, at 2n+from when from is a child
// of v. subs is bump-allocated like greedyBuilder's pool: a frame's
// neighbour subtrees occupy [base, top), the recursion below uses the slots
// above, and no more than n-1 are ever held.
type fpSearch struct {
	sp       *space
	memo     [3 * MaxPatternNodes]rooted
	subs     [MaxPatternNodes]rooted
	top      int
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
	slot := v
	switch {
	case from == pattern.NoNode:
	case v != 0 && sp.pat.Parent[v] == from:
		slot += sp.n
	default:
		slot = 2*sp.n + from
	}
	if p := f.memo[slot]; p.node != nil {
		return p
	}
	leaf := sp.rootLeaf(v)
	// The neighbours' subtrees, parent first and then children: pattern
	// order, which fixes the order the permutations come in.
	base := f.top
	if v != 0 && sp.pat.Parent[v] != from {
		f.addSub(sp.pat.Parent[v], v)
	}
	for c := v + 1; c < sp.n; c++ {
		if sp.pat.Parent[c] == v && c != from {
			f.addSub(c, v)
		}
	}
	subs := f.subs[base:f.top]
	f.top = base
	f.counters.StatusesGenerated++
	if len(subs) == 0 {
		f.memo[slot] = leaf
		return leaf
	}
	o := fpOrders{sp: sp, v: v, leaf: leaf, subs: subs}
	for i := range subs {
		o.order[i] = int8(i)
	}
	o.permute(len(subs))
	f.counters.PlansConsidered += o.considered
	f.counters.StatusesExpanded++
	best := leaf
	for _, i := range o.best[:len(subs)] {
		best = sp.attach(best, v, subs[i], false)
	}
	f.memo[slot] = best
	return best
}

// addSub computes the subtree entered at c from v into the next free slot.
func (f *fpSearch) addSub(c, v int) {
	slot := f.top
	f.top++
	f.subs[slot] = f.subtree(c, v) // uses slots above the reservation
}

// fpOrders is one subtree's permutation search: every order in which subs
// can join leaf, priced, and the first cheapest one kept.
type fpOrders struct {
	sp         *space
	v          int
	leaf       rooted
	subs       []rooted
	order      [MaxPatternNodes]int8 // the permutation being visited
	best       [MaxPatternNodes]int8 // the cheapest one so far
	bestCost   float64
	considered int
}

// permute visits every permutation of order[:k] (Heap's algorithm).
func (o *fpOrders) permute(k int) {
	if k == 1 {
		o.visit()
		return
	}
	for i := 0; i < k; i++ {
		o.permute(k - 1)
		if k%2 == 0 {
			o.order[i], o.order[k-1] = o.order[k-1], o.order[i]
		} else {
			o.order[0], o.order[k-1] = o.order[k-1], o.order[0]
		}
	}
}

// visit prices the current permutation.
func (o *fpOrders) visit() {
	o.considered++
	acc := o.leaf
	for _, i := range o.order[:len(o.subs)] {
		acc, _, _ = o.sp.price(acc, o.v, o.subs[i], false)
	}
	if o.considered == 1 || acc.cost < o.bestCost {
		o.best, o.bestCost = o.order, acc.cost
	}
}
