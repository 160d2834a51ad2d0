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

// greedySignals is the per-pattern input of the greedy builder: ranking
// signals plus the cardinality annotations carried onto the plan, read off
// the estimator.
//
// The arrays are fixed-size (MaxPatternNodes) so the whole struct lives in
// the caller's stack frame: the builder heap-allocates only the plan nodes
// and the Result.
type greedySignals struct {
	scanCard [MaxPatternNodes]float64 // per node: tag postings length (pre-predicate)
	nodeCard [MaxPatternNodes]float64 // per node: post-predicate candidates (annotation)
	edgeSel  [MaxPatternNodes]float64 // per edge id (annotation); [0] unused
	leafCost [MaxPatternNodes]float64 // per node: chosen access-path cost
	score    [MaxPatternNodes]float64 // per node: ranking signal, lower binds tighter
	probe    [MaxPatternNodes]bool    // per node: leaf runs as a value-index probe
	eligible [MaxPatternNodes]bool    // per node: content index can serve the predicate
}

// finish computes each node's ranking score and leaf access path from the
// already-filled cardinalities. sig.eligible marks nodes whose predicate
// the content index can serve; the access path is leafAccess's, the rule
// newSpace applies.
func (sig *greedySignals) finish(pat *pattern.Pattern, model cost.Model) {
	for u := 0; u < pat.N(); u++ {
		s := sig.scanCard[u]
		switch {
		case sig.eligible[u]:
			s /= greedyProbeBoost
		case pat.Nodes[u].Op != pattern.CmpNone:
			s /= greedyPredBoost
		}
		sig.score[u] = s
		sig.leafCost[u], sig.probe[u] = leafAccess(model, sig.scanCard[u], sig.nodeCard[u], sig.eligible[u])
	}
}

// greedy is MethodGreedy's entry point in Optimize: signals are read off an
// already-built estimator. The whole construction is one pass, so a single
// upfront ctx poll suffices.
func greedy(ctx context.Context, pat *pattern.Pattern, est *Estimator, model cost.Model) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := pat.N()
	var b greedyBuilder
	sig := &b.sig
	for u := 0; u < n; u++ {
		sig.scanCard[u] = est.ScanCard(u)
		sig.nodeCard[u] = est.NodeCard(u)
		sig.eligible[u] = est.ProbeOK(u)
	}
	for e := 1; e < n; e++ {
		sig.edgeSel[e] = est.EdgeSelectivity(e)
	}
	sig.finish(pat, model)
	return b.build(pat, model), nil
}

// gplan is one assembled subtree during greedy construction: a pipelined
// plan ordered by its subtree root. card is the intermediate's estimated
// cardinality, maintained incrementally — under the estimator's
// independence model, joining disjoint clusters A and B over edge e gives
// |A ⋈ B| = |A| · |B| · sel(e), so no cluster-mask memo is needed.
type gplan struct {
	node  *plan.Node
	cost  float64 // cumulative estimated cost (annotation only)
	card  float64 // estimated intermediate cardinality
	score float64 // min node score in the subtree: its selectivity promise
	empty bool    // subtree contains a provably-empty leaf
}

// greedyBuilder threads the shared state through the subtree recursion. The
// nodes slice is the single backing allocation for every plan operator
// (2n-1 of them: n leaves, n-1 joins). pool/keys/taken are bump-allocated
// ranking scratch shared by all recursion frames — a frame's children
// occupy [base, top), the recursion below uses slots above, and the frame
// releases its range on return, so total usage never exceeds the edge
// count. The signals are embedded by value and the scratch is fixed-size,
// so the whole builder lives in the entry point's stack frame — the only
// pointers reachable from the returned Result are the pattern and the heap
// nodes slice.
type greedyBuilder struct {
	sig      greedySignals
	pat      *pattern.Pattern
	model    cost.Model
	nodes    []plan.Node
	pool     [MaxPatternNodes]gplan
	keys     [MaxPatternNodes]float64
	taken    [MaxPatternNodes]bool
	top      int
	counters Counters
}

// build assembles the greedy plan from the filled signals: rooted at the
// pattern's output node (OrderBy, else the heuristic root below), child
// subtrees attach in ranking order.
func (b *greedyBuilder) build(pat *pattern.Pattern, model cost.Model) *Result {
	b.pat = pat
	b.model = model
	b.nodes = make([]plan.Node, 0, 2*pat.N()-1)
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
	}
}

// alloc hands out one operator from the backing slice.
func (b *greedyBuilder) alloc() *plan.Node {
	b.nodes = b.nodes[:len(b.nodes)+1]
	return &b.nodes[len(b.nodes)-1]
}

// addSub builds the subtree entered from v through c and files it in the
// current frame's scratch range with its ranking key.
func (b *greedyBuilder) addSub(v, c int) {
	slot := b.top
	b.top++
	b.subtree(c, v, &b.pool[slot]) // uses slots above the reservation
	key := b.pool[slot].score
	e := c
	if v != 0 && b.pat.Parent[v] == c {
		e = v
	}
	if b.pat.Axis[e] == pattern.Descendant {
		key *= greedyDescPenalty
	}
	b.keys[slot], b.taken[slot] = key, false
}

// subtree assembles the greedy plan for the sub-pattern reachable from v
// without crossing `from`, producing output ordered by v and written into
// *out (pointer discipline keeps 48-byte gplan copies off the hot path).
// Each directed edge is visited exactly once, so no memoisation is needed.
func (b *greedyBuilder) subtree(v, from int, out *gplan) {
	pat, sig := b.pat, &b.sig
	b.counters.StatusesGenerated++
	leaf := b.alloc()
	setLeaf(leaf, v, sig.probe[v], sig.nodeCard[v], sig.leafCost[v])
	*out = gplan{
		node:  leaf,
		cost:  leaf.EstCost,
		card:  leaf.EstCard,
		score: sig.score[v],
		empty: sig.scanCard[v] == 0,
	}

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
		b.join(v, out, &b.pool[pick], free && k == b.top-1)
	}
	b.top = base
}

// join attaches one child subtree to the accumulator, keeping the output
// ordered by v: Stack-Tree-Anc when v is the edge's ancestor endpoint,
// Stack-Tree-Desc when it is the descendant (exactly FP's move set). A
// flexible join — the root frame's last join on a free-order pattern — is
// released from the ordered-by-v obligation and takes whichever orientation
// the cost model prefers.
func (b *greedyBuilder) join(v int, acc, sub *gplan, flexible bool) {
	pat, model := b.pat, b.model
	c := sub.node.OrderedBy
	// Edge ids are the lower endpoint: edge v when c is v's parent, edge c
	// when v is c's.
	e := c
	if v != 0 && pat.Parent[v] == c {
		e = v
	}
	// Orient the inputs: anc/desc are the ancestor- and descendant-side
	// subtrees of the edge, regardless of which one holds the accumulator.
	anc, desc, ancID, descID := acc, sub, v, c
	if e != c {
		anc, desc, ancID, descID = sub, acc, c, v
	}
	cardAB := anc.card * desc.card * b.sig.edgeSel[e]
	var stepCost float64
	useDesc := descID == v
	if flexible {
		ac := model.StackTreeAnc(anc.card, desc.card, cardAB)
		dc := model.StackTreeDesc(anc.card, desc.card, cardAB)
		useDesc, stepCost = dc < ac, ac
		if useDesc {
			stepCost = dc
		}
	} else if useDesc {
		stepCost = model.StackTreeDesc(anc.card, desc.card, cardAB)
	} else {
		stepCost = model.StackTreeAnc(anc.card, desc.card, cardAB)
	}
	total := acc.cost + sub.cost + stepCost
	algo, ordered := plan.AlgoAnc, ancID
	if useDesc {
		algo, ordered = plan.AlgoDesc, descID
	}
	j := b.alloc()
	j.Op = plan.OpStructuralJoin
	j.Left = anc.node
	j.Right = desc.node
	j.AncNode = ancID
	j.DescNode = descID
	j.Axis = pat.Axis[e]
	j.Algo = algo
	j.OrderedBy = ordered
	j.EstCard = cardAB
	j.EstCost = total
	// Fold the joined subtree back into the accumulator in place.
	acc.node = j
	acc.cost = total
	acc.card = cardAB
	if sub.score < acc.score {
		acc.score = sub.score
	}
	acc.empty = acc.empty || sub.empty
}
