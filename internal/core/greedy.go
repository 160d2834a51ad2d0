package core

import (
	"context"

	"sjos/internal/cost"
	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// MethodGreedy plans with a statistics-free greedy join orderer. Unlike
// the paper's five cost-based algorithms it never consults positional
// histograms or estimated join selectivities to choose the join order:
// joins are ranked by cheap signals that are visible in the pattern and the
// store's postings directory alone —
//
//   - the tag postings length (a count, not a histogram): smaller postings
//     lists bind fewer candidates and shrink intermediates sooner;
//   - value-predicate eligibility: a leaf whose predicate the content index
//     can serve (ProbeEligible) is the most selective access path and joins
//     first; a predicated-but-unindexed leaf ranks next;
//   - edge kind: a parent-child edge ("/") is structurally tighter than an
//     ancestor-descendant edge ("//"), so `/` children attach before `//`
//     children of the same promise.
//
// Construction follows FP's re-rooting scheme (§3.4): the pattern is picked
// up at the output node (OrderBy, or — when the query leaves the order free
// — the ancestor endpoint of the deepest `//` edge, so that the explosive
// loose joins run in the cheaper Desc orientation) and each child subtree
// joins the accumulated intermediate
// with the Stack-Tree variant that keeps the output ordered by the root —
// Anc when the root is the ancestor, Desc when it is the descendant. The
// one exception is the final join of a free-order pattern: its output order
// is never consumed, so it takes whichever orientation the cost model
// prefers. By Theorem 3.1 such a fully-pipelined plan always exists, so
// greedy construction has no deadends and needs no backtracking: it costs
// exactly one plan. Estimated cardinalities and costs are still annotated onto the
// plan (EXPLAIN ANALYZE compares them with the observed rows), but they never
// influence the join order.
//
// When some leaf's postings list is provably empty (a tag absent from the
// document), every intermediate containing it is empty too: the empty
// subtree joins first and ranking terminates early — the remaining children
// attach in pattern order, since ordering zero-row joins is pointless.

// Relative ranking factors. They express a priority order, not a
// calibrated estimate: an index-probed predicate is assumed far more
// selective than an unindexed one, which beats no predicate at all, and a
// `//` edge loosens whatever promise a subtree makes.
const (
	greedyProbeBoost  = 16 // ProbeEligible leaves first
	greedyPredBoost   = 4  // predicated-but-unindexed leaves next
	greedyDescPenalty = 2  // "//" binds looser than "/"
)

// greedy is MethodGreedy's entry point in Optimize: leaves and joins are
// the search space's, the ranking is read off the estimator's tag counts and
// probe eligibility. The whole construction is one pass, so a single
// upfront ctx poll suffices.
func greedy(ctx context.Context, pat *pattern.Pattern, est *Estimator, model cost.Model) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := greedyBuilder{sp: newSpace(pat, est, model)}
	b.sp.nodes = make([]plan.Node, 0, 2*pat.N()-1)
	for u := 0; u < pat.N(); u++ {
		s := est.ScanCard(u)
		switch {
		case est.ProbeOK(u):
			s /= greedyProbeBoost
		case pat.Nodes[u].Op != pattern.CmpNone:
			s /= greedyPredBoost
		}
		b.score[u] = s
	}
	root := pat.OrderBy
	if root == pattern.NoNode {
		// Free output order: root at the ancestor endpoint of the deepest
		// Descendant-axis edge. Edges above the root run as Stack-Tree-Desc,
		// which never pays Anc's 2·|AB|·f_IO output-buffering term, so the
		// loose `//` edges — the ones whose join outputs explode — belong on
		// the spine above the root, deferred past the tight joins below it.
		// Depth and axis are pattern structure: the rule is statistics-free.
		root = 0
		bestDepth := 0
		for e := 1; e < pat.N(); e++ {
			if pat.Axis[e] != pattern.Descendant {
				continue
			}
			d := 0
			for u := e; u != 0; u = pat.Parent[u] {
				d++
			}
			if d > bestDepth {
				bestDepth, root = d, pat.Parent[e]
			}
		}
	}
	var pl gplan
	b.subtree(root, pattern.NoNode, &pl)
	return &Result{
		Plan:      pl.node,
		Cost:      pl.cost,
		Algorithm: "Greedy",
		Counters:  b.counters,
	}, nil
}

// gplan is one assembled subtree during greedy construction: a pipelined
// plan ordered by its subtree root, and what ranks it.
type gplan struct {
	rooted
	score float64 // min node score in the subtree: its selectivity promise
	empty bool    // subtree contains a provably-empty leaf
}

// greedyBuilder threads the shared state through the subtree recursion.
// pool/keys/taken are bump-allocated ranking scratch shared by all recursion
// frames — a frame's children occupy [base, top), the recursion below uses
// slots above, and the frame releases its range on return, so total usage
// never exceeds the edge count.
type greedyBuilder struct {
	sp       *space
	score    [MaxPatternNodes]float64 // per node: ranking signal, lower binds tighter
	pool     [MaxPatternNodes]gplan
	keys     [MaxPatternNodes]float64
	taken    [MaxPatternNodes]bool
	top      int
	counters Counters
}

// addSub builds the subtree entered from v through c and files it in the
// current frame's scratch range with its ranking key.
func (b *greedyBuilder) addSub(v, c int) {
	slot := b.top
	b.top++
	b.subtree(c, v, &b.pool[slot]) // uses slots above the reservation
	key := b.pool[slot].score
	e := c
	if v != 0 && b.sp.pat.Parent[v] == c {
		e = v
	}
	if b.sp.pat.Axis[e] == pattern.Descendant {
		key *= greedyDescPenalty
	}
	b.keys[slot], b.taken[slot] = key, false
}

// subtree assembles the greedy plan for the sub-pattern reachable from v
// without crossing `from`, producing output ordered by v and written into
// *out. Each directed edge is visited exactly once, so no memoisation is
// needed.
func (b *greedyBuilder) subtree(v, from int, out *gplan) {
	sp := b.sp
	pat := sp.pat
	b.counters.StatusesGenerated++
	*out = gplan{rooted: sp.rootLeaf(v), score: b.score[v], empty: sp.est.ScanCard(v) == 0}

	// Build each adjacent subtree (parent first, then children — pattern
	// order) and its ranking key.
	base := b.top
	if v != 0 && pat.Parent[v] != from {
		b.addSub(v, pat.Parent[v])
	}
	for c := 1; c < pat.N(); c++ {
		if pat.Parent[c] == v && c != from {
			b.addSub(v, c)
		}
	}
	if b.top == base {
		return
	}
	b.counters.StatusesExpanded++

	// The very last join of the root frame produces the query result: when
	// the pattern leaves the output order free, that join may use whichever
	// Stack-Tree orientation is cheaper — nothing downstream consumes its
	// order. (FP gets the same freedom by trying every root.)
	free := from == pattern.NoNode && pat.OrderBy == pattern.NoNode
	for k := base; k < b.top; k++ {
		pick := -1
		if out.empty {
			// Early termination: the accumulated intermediate is provably
			// empty, every further join yields zero rows — stop ranking and
			// attach the rest in pattern order.
			for i := base; i < b.top; i++ {
				if !b.taken[i] {
					pick = i
					break
				}
			}
		} else {
			for i := base; i < b.top; i++ {
				if !b.taken[i] && (pick < 0 || b.keys[i] < b.keys[pick]) {
					pick = i
				}
			}
		}
		b.taken[pick] = true
		b.counters.PlansConsidered++
		sub := &b.pool[pick]
		out.rooted = sp.attach(out.rooted, v, sub.rooted, free && k == b.top-1)
		out.score = min(out.score, sub.score)
		out.empty = out.empty || sub.empty
	}
	b.top = base
}
