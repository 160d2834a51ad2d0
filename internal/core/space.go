package core

import (
	"math"
	"math/bits"

	"sjos/internal/cost"
	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// space is the status search space for one (pattern, statistics, cost
// model) triple, shared by all optimization algorithms. The status/move model
// of §3 lives here; the storage it runs on is the embedded kernel.
type space struct {
	pat      *pattern.Pattern
	est      *Estimator
	model    cost.Model
	n        int // pattern nodes
	numEdges int
	allEdges uint32  // bit e set for every edge id e (1..n-1)
	scanCost float64 // Σ leaf access cost; paid by every plan

	// Per-node leaf access path, chosen once in newSpace by leafAccess: a
	// value-index probe of the predicate's postings, or a tag scan (+
	// filter). Leaf cost is paid by every plan, so the choice never changes
	// the join order — but it changes the leaf operators and absolute plan
	// cost.
	leafCost  [MaxPatternNodes]float64
	leafProbe [MaxPatternNodes]bool

	// incident[x] has bit e set for every edge with an endpoint at x: the
	// children of x (an edge's id is its lower endpoint) and x itself.
	incident [MaxPatternNodes]uint32

	// nodes is the slab newNode hands plan operators out of. Greedy, which
	// builds each of its 2n-1 operators exactly once, and FP, which builds
	// only its memo entries' winning orders, size it.
	nodes []plan.Node

	kernel // empty until start; FP and Greedy never need one
}

// newSpace prepares the search space.
func newSpace(pat *pattern.Pattern, est *Estimator, model cost.Model) *space {
	sp := &space{
		pat:      pat,
		est:      est,
		model:    model,
		n:        pat.N(),
		numEdges: pat.NumEdges(),
	}
	for e := 1; e < sp.n; e++ {
		sp.allEdges |= 1 << uint(e)
		sp.incident[e] |= 1 << uint(e)
		sp.incident[pat.Parent[e]] |= 1 << uint(e)
	}
	for u := 0; u < sp.n; u++ {
		sp.leafCost[u], sp.leafProbe[u] = leafAccess(model, est.ScanCard(u), est.NodeCard(u), est.ProbeOK(u))
		sp.scanCost += sp.leafCost[u]
	}
	return sp
}

// leafAccess is the one leaf access-path rule (predicate pushdown). A node
// without a predicate scans its scanCard tag postings. A predicated node
// compares the full scan-and-filter (every tag posting passes through the
// index) with a value-index probe that retrieves only its nodeCard matching
// postings, when the store offers one with identical semantics (probeOK). It
// returns the chosen access's cost and whether it is the probe.
func leafAccess(model cost.Model, scanCard, nodeCard float64, probeOK bool) (float64, bool) {
	c := model.IndexAccess(scanCard)
	if probeOK {
		if probe := model.ValueProbe(nodeCard); probe < c {
			return probe, true
		}
	}
	return c, false
}

// leaf makes the zero node nd pattern node u's index-scan leaf, with the
// access path newSpace chose, annotated with its estimated output and access
// cost. Every plan leaf of every method is written here.
func (sp *space) leaf(nd *plan.Node, u int) {
	nd.Op = plan.OpIndexScan
	nd.PatternNode, nd.OrderedBy = u, u
	nd.ValueIndex = sp.leafProbe[u]
	nd.EstCard, nd.EstCost = sp.est.NodeCard(u), sp.leafCost[u]
}

// rooted is a plan for a connected sub-pattern whose output is ordered by
// one of its nodes, the root: what FP and Greedy build when they pick the
// pattern up at a node (§3.4) and join its neighbours' subtrees onto it.
type rooted struct {
	node *plan.Node
	cost float64 // cumulative: leaf accesses and joins
	mask uint64  // pattern nodes covered
	card float64 // ClusterCard(mask)
}

// newNode hands out a zero plan operator: from sp.nodes while it has room,
// else from the heap.
func (sp *space) newNode() *plan.Node {
	if len(sp.nodes) == cap(sp.nodes) {
		return new(plan.Node)
	}
	sp.nodes = sp.nodes[:len(sp.nodes)+1]
	return &sp.nodes[len(sp.nodes)-1]
}

// rootLeaf returns node v's leaf as a one-node plan rooted at v.
func (sp *space) rootLeaf(v int) rooted {
	nd := sp.newNode()
	sp.leaf(nd, v)
	return rooted{node: nd, cost: nd.EstCost, mask: 1 << uint(v), card: nd.EstCard}
}

// price is attach without the operator: the joined plan's cost, node mask and
// cardinality (its node is nil), the id e of the edge it joins and the
// Stack-Tree variant. acc's node is not read, so a search can price a chain
// of joins before it builds any of them.
func (sp *space) price(acc rooted, v int, sub rooted, free bool) (out rooted, e int, algo plan.Algo) {
	c := sub.node.OrderedBy
	// An edge's id is its lower endpoint: v when c is v's parent, else c.
	e, ancCard, descCard := c, acc.card, sub.card
	if v != 0 && sp.pat.Parent[v] == c {
		e, ancCard, descCard = v, sub.card, acc.card
	}
	mask := acc.mask | sub.mask
	card := sp.est.ClusterCard(mask)
	algo = plan.AlgoAnc
	join := sp.model.StackTreeAnc(ancCard, descCard, card)
	if d := sp.model.StackTreeDesc(ancCard, descCard, card); free && d < join || !free && e == v {
		algo, join = plan.AlgoDesc, d
	}
	return rooted{cost: acc.cost + sub.cost + join, mask: mask, card: card}, e, algo
}

// attach joins sub, the subtree of a neighbour of v and ordered by that
// neighbour, onto acc, a plan rooted at v. The join keeps the output ordered
// by v: Stack-Tree-Anc when v is the edge's ancestor, Stack-Tree-Desc when it
// is the descendant. free releases a join whose output order nothing
// consumes from that obligation: it takes whichever variant is cheaper. The
// join's cardinality and cost come from ClusterCard and the cost model (see
// price), as a move's do in record.
func (sp *space) attach(acc rooted, v int, sub rooted, free bool) rooted {
	out, e, algo := sp.price(acc, v, sub, free)
	anc, desc, ord := acc.node, sub.node, sp.pat.Parent[e]
	if e == v {
		anc, desc = desc, anc
	}
	if algo == plan.AlgoDesc {
		ord = e
	}
	out.node = sp.newNode()
	*out.node = plan.Node{
		Op: plan.OpStructuralJoin, Left: anc, Right: desc,
		AncNode: sp.pat.Parent[e], DescNode: e, Axis: sp.pat.Axis[e], Algo: algo, OrderedBy: ord,
		EstCard: out.card, EstCost: out.cost,
	}
	return out
}

// start empties the kernel and returns the index of the start status S₀: no
// edges joined, every singleton cluster ordered by its own node, cost = all
// index accesses.
func (sp *space) start() int32 {
	sp.reset(sp.n)
	return sp.push(status{
		orderMask: uint32(uint64(1)<<uint(sp.n) - 1),
		cost:      sp.scanCost,
		prev:      -1,
		rec:       sp.record(0),
		heapPos:   -1,
	})
}

// add appends the successor status c describes, reached from status from,
// and returns its index.
func (sp *space) add(c candidate, from int32) int32 {
	return sp.push(status{
		edges:     c.edges,
		orderMask: c.orderMask,
		cost:      c.cost,
		prev:      from,
		rec:       sp.successor(sp.at(from), int(c.via.edge)),
		heapPos:   -1,
		via:       c.via,
	})
}

// record returns the record of an edge mask, filling it on first use: per
// unjoined edge the clusters it connects and the three costs its moves are
// made of, and ubCost. Everything in it follows from which edges are joined
// — cardinalities are per cluster — so one record serves every status with
// that mask, however its clusters are ordered.
//
// ubCost estimates the cost still needed to reach a final status (§3.2): per
// unjoined edge, a Desc join of the two clusters it connects. A
// fully-pipelined completion (Desc joins, no sorts) always exists (Theorem
// 3.1) and is usually close to the optimal completion, so it makes the
// sharper priority estimate: DPP reaches its first full plan quickly and the
// dead-status rule starts pruning early. It only influences DPP's expansion
// order, never which plan is finally returned.
func (sp *space) record(edges uint32) int32 {
	r, at := sp.masks.find(edges, 0)
	if r >= 0 {
		return r
	}
	r = int32(len(sp.ub))
	sp.masks.put(at, edges, 0, r)
	sp.first = append(grown(sp.first, sp.initial), int32(len(sp.moves)))

	// Edges point parent -> child with parent < child, so one pass in
	// increasing child order settles every node's cluster root (its minimum
	// node id) and gathers the clusters' node masks at their roots.
	var root [MaxPatternNodes]int8
	var cluster [MaxPatternNodes]uint32 // per root
	var card [MaxPatternNodes]float64   // per root
	for v := 0; v < sp.n; v++ {
		root[v] = int8(v)
		if edges&(1<<uint(v)) != 0 {
			root[v] = root[sp.pat.Parent[v]]
		}
		cluster[root[v]] |= 1 << uint(v)
	}
	for v := 0; v < sp.n; v++ {
		if int(root[v]) == v {
			card[v] = sp.est.ClusterCard(uint64(cluster[v]))
		}
	}
	ub := 0.0
	for free := sp.allEdges &^ edges; free != 0; free &= free - 1 {
		e := bits.TrailingZeros32(free)
		ru, rv := root[sp.pat.Parent[e]], root[e]
		cardM := sp.est.ClusterCard(uint64(cluster[ru] | cluster[rv]))
		desc := sp.model.StackTreeDesc(card[ru], card[rv], cardM)
		sp.moves = append(grown(sp.moves, sp.initial), edgeMove{
			mu:       cluster[ru],
			mv:       cluster[rv],
			descCost: desc,
			ancCost:  sp.model.StackTreeAnc(card[ru], card[rv], cardM),
			sortCost: sp.model.Sort(cardM),
		})
		ub += desc
	}
	sp.ub = append(grown(sp.ub, sp.initial), ub)
	return r
}

// move returns record rec's entry for edge e, unjoined in rec's mask edges:
// entries are in edge order, so e's position is the number of unjoined edges
// below it.
func (sp *space) move(rec int32, edges uint32, e int) *edgeMove {
	below := sp.allEdges &^ edges & (1<<uint(e) - 1)
	return &sp.moves[int(sp.first[rec])+popcount(below)]
}

// successor returns the record of status from's mask with edge e joined as
// well, remembering it in from's move table.
func (sp *space) successor(from *status, e int) int32 {
	next := sp.move(from.rec, from.edges, e).next
	if next == 0 {
		next = sp.record(from.edges|1<<uint(e)) + 1 // may move sp.moves
		sp.move(from.rec, from.edges, e).next = next
	}
	return next - 1
}

// noBound, as expand's bound, prunes nothing: no cost compares >= NaN.
var noBound = math.NaN()

// candidate is one possible successor produced by expanding a status.
type candidate struct {
	edges     uint32
	orderMask uint32
	cost      float64 // successor's accumulated cost
	via       move
	// deadend: the successor is not final and no move is possible from it
	// (Definition 6) — what DPP's Lookahead Rule refuses to generate.
	deadend bool
}

// moveOpts restricts move generation for the DPAP variants and ablations.
type moveOpts struct {
	leftDeepOnly bool
	// pipelineOnly drops every sort (the sorted output variants and the
	// final OrderBy sort), restricting the space to exactly the
	// fully-pipelined plans of §3.4.
	pipelineOnly bool
	// liveOnly leaves deadend successors out: the Lookahead Rule, applied
	// before the candidate is written rather than after.
	liveOnly bool
}

// expand enumerates every alternative move from s, returning the resulting
// candidate successors (valid until the next call) in edge order. The
// enumeration implements §3's move model:
//
//   - a move joins one unjoined edge (u,v) and requires cluster(u) ordered
//     by u and cluster(v) ordered by v;
//   - Stack-Tree-Desc orders the merged cluster by v, Stack-Tree-Anc by u;
//   - the move's output may instead be sorted by any other node of the
//     merged cluster at n·log n cost (sorted variants start from the
//     cheaper Desc join);
//   - for the final move, only orderings that matter are generated: the
//     query's OrderBy node if it has one, or the cheapest alternative if
//     not (the paper's "we don't care about the ordering any more").
//
// Candidates whose cost reaches bound are left out — DPP's dead-on-arrival
// rule, applied once to the equal-cost sorted variants of an edge rather
// than to each; pass noBound to see every candidate.
//
// Per edge it is bit tests and reads of the mask's record. A node is its
// cluster's order node exactly when its orderMask bit is set (the mask holds
// one bit per cluster), and an unjoined edge always connects two distinct
// clusters, so the edges that can move are those with both endpoint bits
// set. The deadend test uses the same fact: after joining (u,v) with the
// merged cluster ordered by w, the successor can move iff another movable
// edge of s touches neither u nor v, or an unjoined edge at w leads to
// another cluster's order node.
func (sp *space) expand(s status, opts moveOpts, bound float64) []candidate {
	out := sp.cands[:0]
	parent := sp.pat.Parent

	var movable uint32
	for m := s.orderMask &^ s.edges &^ 1; m != 0; m &= m - 1 {
		e := bits.TrailingZeros32(m)
		if s.orderMask&(1<<uint(parent[e])) != 0 {
			movable |= 1 << uint(e)
		}
	}
	for m := movable; m != 0; m &= m - 1 {
		e := bits.TrailingZeros32(m)
		bit := uint32(1) << uint(e)
		u, v := parent[e], e
		mv := sp.move(s.rec, s.edges, e)
		if opts.leftDeepOnly {
			// §3.3.2: at most one cluster of the resulting status may
			// hold multiple pattern nodes (the growing node). The move
			// merges the clusters of u and v into one multi-node cluster,
			// so every other multi-node cluster must already be one of
			// them: each joined edge grew some cluster by one node.
			grownU, grownV := popcount(mv.mu)-1, popcount(mv.mv)-1
			if popcount(s.edges) != grownU+grownV {
				continue // a multi-node cluster exists outside the inputs
			}
			if grownU > 0 && grownV > 0 {
				continue // would merge two composites
			}
		}
		newEdges := s.edges | bit
		baseOrder := s.orderMask &^ (uint32(1)<<uint(u) | bit)
		alive := movable&^(sp.incident[u]|sp.incident[v]) != 0
		emit := func(algo plan.Algo, sortBy, ord int, cost float64) {
			c := candidate{
				edges:     newEdges,
				orderMask: baseOrder | uint32(1)<<uint(ord),
				cost:      cost,
				via:       move{edge: int8(e), algo: algo, sortBy: int8(sortBy)},
			}
			if !alive && newEdges != sp.allEdges {
				// Unjoined edges at ord: down to a child that orders its
				// cluster, or up to a parent that does.
				down := sp.incident[ord] &^ (uint32(1) << uint(ord)) &^ newEdges & baseOrder
				up := ord != 0 && newEdges&(1<<uint(ord)) == 0 && baseOrder&(1<<uint(parent[ord])) != 0
				c.deadend = down == 0 && !up
				if c.deadend && opts.liveOnly {
					return
				}
			}
			out = append(out, c)
		}
		descCost := s.cost + mv.descCost
		ancCost := s.cost + mv.ancCost
		sortedCost := s.cost + (mv.descCost + mv.sortCost)

		if newEdges == sp.allEdges {
			// Final move: ordering is only constrained by the query.
			switch r := sp.pat.OrderBy; {
			case r == pattern.NoNode || r == v:
				if !(descCost >= bound) {
					emit(plan.AlgoDesc, pattern.NoNode, v, descCost)
				}
			case r == u:
				if !(ancCost >= bound) {
					emit(plan.AlgoAnc, pattern.NoNode, u, ancCost)
				}
				if !opts.pipelineOnly && !(sortedCost >= bound) {
					emit(plan.AlgoDesc, r, r, sortedCost)
				}
			default:
				if !opts.pipelineOnly && !(sortedCost >= bound) {
					emit(plan.AlgoDesc, r, r, sortedCost)
				}
			}
			continue
		}

		// Natural orderings.
		if !(descCost >= bound) {
			emit(plan.AlgoDesc, pattern.NoNode, v, descCost)
		}
		if !(ancCost >= bound) {
			emit(plan.AlgoAnc, pattern.NoNode, u, ancCost)
		}
		if opts.pipelineOnly || sortedCost >= bound {
			continue
		}
		// Sorted variants: re-order the (cheaper) Desc output by any
		// other node of the merged cluster.
		for ws := (mv.mu | mv.mv) &^ bit; ws != 0; ws &= ws - 1 {
			w := bits.TrailingZeros32(ws)
			emit(plan.AlgoDesc, w, w, sortedCost)
		}
	}
	sp.cands = out
	return out
}

// finalize turns a reached final status into a Result plan tree by
// replaying the move chain from the start status. A move's inputs are the
// plans of the clusters of its edge's endpoints — kept at the cluster's
// root, its minimum node id — and its costs are the predecessor's record's.
func (sp *space) finalize(final int32) *plan.Node {
	n := sp.n
	var chain [MaxPatternNodes]int32 // final first
	depth := 0
	for i := final; sp.at(i).prev >= 0; i = sp.at(i).prev {
		chain[depth] = i
		depth++
	}
	// Leaves, joins and at most one sort per join, in one allocation.
	nodes := make([]plan.Node, 0, 3*n)
	keep := func(nd *plan.Node) *plan.Node {
		nodes = append(nodes, *nd)
		return &nodes[len(nodes)-1]
	}
	var plans [MaxPatternNodes]*plan.Node // indexed by cluster root
	for i := 0; i < n; i++ {
		plans[i] = keep(&plan.Node{})
		sp.leaf(plans[i], i)
	}
	for d := depth - 1; d >= 0; d-- {
		st := sp.at(chain[d])
		e := int(st.via.edge)
		u, v := sp.pat.Parent[e], e
		prev := sp.at(st.prev)
		mv := sp.move(prev.rec, prev.edges, e)
		left := plans[bits.TrailingZeros32(mv.mu)]
		right := plans[bits.TrailingZeros32(mv.mv)]
		joinCost := mv.descCost
		if st.via.algo == plan.AlgoAnc {
			joinCost = mv.ancCost
		}
		top := keep(plan.NewJoin(left, right, u, v, sp.pat.Axis[e], st.via.algo))
		top.EstCard = sp.est.ClusterCard(uint64(mv.mu | mv.mv))
		top.EstCost = left.EstCost + right.EstCost + joinCost
		if w := int(st.via.sortBy); w != pattern.NoNode {
			srt := keep(plan.NewSort(top, w))
			srt.EstCard = top.EstCard
			srt.EstCost = top.EstCost + mv.sortCost
			top = srt
		}
		plans[bits.TrailingZeros32(mv.mu|mv.mv)] = top
	}
	return plans[0]
}

// Counters reports how much work a search did; the paper's Table 2 compares
// algorithms by these numbers.
type Counters struct {
	// PlansConsidered counts every alternative (sub-)plan costed during
	// the search — each candidate move evaluated.
	PlansConsidered int
	// StatusesGenerated counts successor statuses materialised.
	StatusesGenerated int
	// StatusesExpanded counts statuses whose moves were enumerated.
	StatusesExpanded int
}

// Result is an optimization outcome.
type Result struct {
	// Plan is the chosen physical plan.
	Plan *plan.Node
	// Cost is the plan's estimated cost (including index accesses and,
	// when the query specifies an order, any final sort).
	Cost float64
	// Algorithm names the optimizer that produced the result.
	Algorithm string
	// Counters reports the search effort.
	Counters Counters
}
