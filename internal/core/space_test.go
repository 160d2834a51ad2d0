package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// pathPattern returns //a//b//c (nodes 0,1,2; edges 1,2).
func pathPattern() *pattern.Pattern { return pattern.MustParse("//a//b//c") }

func newTestSpace(t *testing.T, pat *pattern.Pattern) *space {
	t.Helper()
	est := uniformEstimator(t, pat, 100, 0.05)
	return newSpace(pat, est, testModel())
}

// refHasMove is the deadend test of Definition 6 written out edge by edge —
// the reference the kernel's incremental candidate.deadend is held to.
func refHasMove(pat *pattern.Pattern, edges, orderMask uint32) bool {
	for e := 1; e < pat.N(); e++ {
		bit := uint32(1) << uint(e)
		if edges&bit == 0 && orderMask&bit != 0 && orderMask&(1<<uint(pat.Parent[e])) != 0 {
			return true
		}
	}
	return false
}

// refClusters returns, per pattern node, the node mask of its cluster under
// the given joined-edge set, by flooding from every node.
func refClusters(pat *pattern.Pattern, edges uint32) []uint64 {
	n := pat.N()
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1 << uint(i)
	}
	for changed := true; changed; {
		changed = false
		for v := 1; v < n; v++ {
			if edges&(1<<uint(v)) == 0 {
				continue
			}
			if u := pat.Parent[v]; out[u] != out[v] {
				out[u] |= out[v]
				out[v] = out[u]
				changed = true
			}
		}
	}
	return out
}

func TestStartStatus(t *testing.T) {
	sp := newTestSpace(t, pathPattern())
	s0 := *sp.at(sp.start())
	if s0.edges != 0 {
		t.Errorf("start edges = %b", s0.edges)
	}
	if s0.orderMask != 0b111 {
		t.Errorf("start orderMask = %b", s0.orderMask)
	}
	if s0.cost != sp.scanCost {
		t.Errorf("start cost = %v, want scan cost %v", s0.cost, sp.scanCost)
	}
	if s0.prev != -1 || s0.heapPos != -1 {
		t.Errorf("start prev %d heapPos %d, want -1 -1", s0.prev, s0.heapPos)
	}
}

func TestRecordClusters(t *testing.T) {
	sp := newTestSpace(t, pathPattern())
	sp.start()
	// Join edge 2 (b-c): clusters {a}, {b,c}; edge 1 (a-b) is left.
	r := sp.record(1 << 2)
	if mv := sp.move(r, 1<<2, 1); mv.mu != 0b001 || mv.mv != 0b110 {
		t.Fatalf("edge 1 joins clusters %03b and %03b", mv.mu, mv.mv)
	}
	if got := len(sp.moves) - int(sp.first[r]); got != 1 {
		t.Fatalf("record holds %d moves, want 1", got)
	}
	if again := sp.record(1 << 2); again != r {
		t.Fatalf("second lookup made a second record")
	}
}

// TestMoveTableMatchesModel: every entry of a mask's record — the clusters
// an unjoined edge connects, the three move costs, ubCost — equals the direct
// cost.Model computation over ClusterCard, for random (pattern, mask, edge).
func TestMoveTableMatchesModel(t *testing.T) {
	for ci, c := range goldenCorpus(t) {
		if ci%5 != 0 {
			continue
		}
		sp := newSpace(c.pat, c.est, c.model)
		sp.start()
		rng := rand.New(rand.NewSource(int64(ci)))
		for trial := 0; trial < 40; trial++ {
			edges := rng.Uint32() & sp.allEdges
			r := sp.record(edges)
			clusters := refClusters(c.pat, edges)
			ub := 0.0
			for e := 1; e < sp.n; e++ {
				if edges&(1<<uint(e)) != 0 {
					continue
				}
				mu, mv := clusters[c.pat.Parent[e]], clusters[e]
				a, b, ab := c.est.ClusterCard(mu), c.est.ClusterCard(mv), c.est.ClusterCard(mu|mv)
				want := edgeMove{
					mu:       uint32(mu),
					mv:       uint32(mv),
					descCost: c.model.StackTreeDesc(a, b, ab),
					ancCost:  c.model.StackTreeAnc(a, b, ab),
					sortCost: c.model.Sort(ab),
				}
				if got := *sp.move(r, edges, e); got != want {
					t.Fatalf("%s mask %b edge %d: move %+v, want %+v", c.name, edges, e, got, want)
				}
				ub += want.descCost
			}
			if got := sp.ub[r]; got != ub {
				t.Fatalf("%s mask %b: ubCost %v, want %v", c.name, edges, got, ub)
			}
		}
	}
}

// TestDeadendDetection reproduces the paper's Definition 6 situation: after
// joining a//b with output ordered by a, the remaining edge (b,c) needs the
// {a,b} cluster ordered by b — a deadend. Then it holds every candidate of
// every reachable status of a larger twig to the edge-by-edge test.
func TestDeadendDetection(t *testing.T) {
	sp := newTestSpace(t, pathPattern())
	for _, c := range sp.expand(*sp.at(sp.start()), moveOpts{}, noBound) {
		if c.via.edge != 1 {
			continue
		}
		// {ab} ordered by a is dead, ordered by b alive.
		if want := c.orderMask&(1<<1) == 0; c.deadend != want {
			t.Fatalf("join (a,b) ordered %03b: deadend = %v", c.orderMask, c.deadend)
		}
	}

	pat := planColdTwig(t, 6, 110000)
	sp = newSpace(pat, persEstimator(t, pat), testModel())
	sp.start()
	for si := int32(0); si < sp.count && si < 20000; si++ {
		for _, c := range sp.expand(*sp.at(si), moveOpts{}, noBound) {
			final := c.edges == sp.allEdges
			if want := !final && !refHasMove(pat, c.edges, c.orderMask); c.deadend != want {
				t.Fatalf("status %b/%b: deadend = %v, want %v", c.edges, c.orderMask, c.deadend, want)
			}
			if seen, at := sp.visited.find(c.edges, c.orderMask); seen < 0 {
				sp.visited.put(at, c.edges, c.orderMask, sp.add(c, si))
			}
		}
	}
}

// TestExpandMoveSet verifies the §3 move-model composition for one edge of
// the start status: Desc, Anc, and one sorted variant per other node of the
// merged cluster.
func TestExpandMoveSet(t *testing.T) {
	sp := newTestSpace(t, pathPattern())
	type alt struct {
		algo   plan.Algo
		sortBy int8
	}
	got := map[int8][]alt{}
	for _, c := range sp.expand(*sp.at(sp.start()), moveOpts{}, noBound) {
		got[c.via.edge] = append(got[c.via.edge], alt{c.via.algo, c.via.sortBy})
	}
	if len(got) != 2 {
		t.Fatalf("moves on %d edges, want 2", len(got))
	}
	for e, alts := range got {
		// Merged cluster has 2 nodes: Desc (order desc), Anc (order
		// anc), Desc+sort(anc) = 3 alternatives.
		if len(alts) != 3 {
			t.Fatalf("edge %d: %d alternatives, want 3: %+v", e, len(alts), alts)
		}
	}
}

// TestExpandFinalMoveRespectsOrderBy checks that the last move only
// generates orderings the query can use.
func TestExpandFinalMoveRespectsOrderBy(t *testing.T) {
	pat := pattern.MustParse("//a//b") // one edge: the first move is final
	for _, ob := range []int{pattern.NoNode, 0, 1} {
		pat.OrderBy = ob
		est := uniformEstimator(t, pat, 50, 0.1)
		sp := newSpace(pat, est, testModel())
		cands := sp.expand(*sp.at(sp.start()), moveOpts{}, noBound)
		switch ob {
		case pattern.NoNode:
			if len(cands) != 1 || cands[0].via.algo != plan.AlgoDesc {
				t.Fatalf("no OrderBy: candidates %+v", cands)
			}
		case 1:
			if len(cands) != 1 || cands[0].orderMask != 1<<1 {
				t.Fatalf("OrderBy desc: candidates %+v", cands)
			}
		case 0:
			// Anc, or Desc+sort(a): two ways, both ordered by a.
			if len(cands) != 2 {
				t.Fatalf("OrderBy anc: %d candidates", len(cands))
			}
			for _, c := range cands {
				if c.orderMask != 1<<0 {
					t.Fatalf("candidate not ordered by a: %+v", c)
				}
			}
		}
	}
}

// TestExpandBound: a bound drops exactly the candidates whose cost reaches
// it, and leaves the others in order.
func TestExpandBound(t *testing.T) {
	pat := figure1Pattern()
	sp := newSpace(pat, skewedEstimator(t, pat, 7), testModel())
	s0 := *sp.at(sp.start())
	all := append([]candidate(nil), sp.expand(s0, moveOpts{}, noBound)...)
	bound := all[len(all)/2].cost
	var want []candidate
	for _, c := range all {
		if !(c.cost >= bound) {
			want = append(want, c)
		}
	}
	if got := sp.expand(s0, moveOpts{}, bound); !slices.Equal(got, want) {
		t.Fatalf("bounded expansion kept %d candidates, want %d of %d", len(got), len(want), len(all))
	}
}

// TestLeftDeepMoveRestriction: with leftDeepOnly, a move joining two
// multi-node clusters is refused.
func TestLeftDeepMoveRestriction(t *testing.T) {
	pat := pattern.MustParse("//a[b]//c[d]") // a=0,b=1,c=2,d=3; edges b,c,d
	est := uniformEstimator(t, pat, 100, 0.05)
	sp := newSpace(pat, est, testModel())
	sp.start()
	// Status: {a,b} ordered a, {c,d} ordered c — joined edges 1 and 3.
	s := status{
		edges:     1<<1 | 1<<3,
		orderMask: 1<<0 | 1<<2,
		rec:       sp.record(1<<1 | 1<<3),
	}
	all := len(sp.expand(s, moveOpts{}, noBound))
	ld := len(sp.expand(s, moveOpts{leftDeepOnly: true}, noBound))
	if all == 0 {
		t.Fatal("unrestricted expansion found no moves")
	}
	if ld != 0 {
		t.Fatalf("left-deep expansion allowed joining two composites (%d moves)", ld)
	}
}

// TestLookaheadReducesGeneratedStatuses: DPP′ materialises deadend statuses
// that DPP refuses to create.
func TestLookaheadReducesGeneratedStatuses(t *testing.T) {
	pat := figure1Pattern()
	for seed := int64(0); seed < 5; seed++ {
		est := skewedEstimator(t, pat, 2000+seed)
		withLA, err := Optimize(context.Background(), pat, est, testModel(), MethodDPP, nil)
		if err != nil {
			t.Fatal(err)
		}
		withoutLA, err := Optimize(context.Background(), pat, est, testModel(), MethodDPPNoLookahead, nil)
		if err != nil {
			t.Fatal(err)
		}
		if withLA.Counters.StatusesGenerated >= withoutLA.Counters.StatusesGenerated {
			t.Errorf("seed %d: lookahead generated %d statuses, DPP' %d",
				seed, withLA.Counters.StatusesGenerated, withoutLA.Counters.StatusesGenerated)
		}
	}
}

// TestUbCostIsNonNegativeAndShrinks: the remaining-cost estimate decreases
// (weakly) as more edges are joined, and is zero at final statuses.
func TestUbCost(t *testing.T) {
	pat := figure1Pattern()
	est := skewedEstimator(t, pat, 3)
	sp := newSpace(pat, est, testModel())
	sp.start()
	ubCost := func(edges uint32) float64 { return sp.ub[sp.record(edges)] }
	if ub := ubCost(sp.allEdges); ub != 0 {
		t.Fatalf("ubCost(final) = %v", ub)
	}
	ub0 := ubCost(0)
	if ub0 <= 0 {
		t.Fatalf("ubCost(start) = %v", ub0)
	}
	// Along any chain of edge additions the estimate stays non-negative
	// and the record returns identical values.
	edges := uint32(0)
	for e := 1; e < pat.N(); e++ {
		edges |= 1 << uint(e)
		ub := ubCost(edges)
		if ub < 0 {
			t.Fatalf("ubCost negative at %b", edges)
		}
		if again := ubCost(edges); again != ub {
			t.Fatalf("ubCost record unstable at %b: %v vs %v", edges, ub, again)
		}
	}
}

// TestFinalizeCostConsistency: the plan extracted from a search reproduces
// its claimed cost when re-costed from scratch.
func TestFinalizeCostConsistency(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		pat := figure1Pattern()
		est := skewedEstimator(t, pat, 5000+seed)
		res, err := Optimize(context.Background(), pat, est, testModel(), MethodDPP, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := recost(est, testModel(), res.Plan); math.Abs(got-res.Cost) > 1e-6*res.Cost {
			t.Fatalf("seed %d: Cost %v, recost %v", seed, res.Cost, got)
		}
	}
}
