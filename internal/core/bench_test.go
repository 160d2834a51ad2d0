package core

import (
	"context"
	"fmt"
	"testing"

	"sjos/internal/cost"
	"sjos/internal/pattern"
)

// chainPattern builds //t0//t1//…//t(n-1).
func chainPattern(n int) *pattern.Pattern {
	b := pattern.NewBuilder("t0")
	h := b.Root()
	for i := 1; i < n; i++ {
		h = b.Desc(h, fmt.Sprintf("t%d", i))
	}
	return b.Pattern()
}

// benchEstimator gives distinct stats per node so searches do real work.
func benchEstimator(b *testing.B, pat *pattern.Pattern) *Estimator {
	b.Helper()
	nodeCard := make([]float64, pat.N())
	edgeSel := make([]float64, pat.N())
	for i := range nodeCard {
		nodeCard[i] = float64(100 + 37*i%9000)
		edgeSel[i] = 1.0 / float64(10+13*i%500)
	}
	est, err := NewManualEstimator(pat, nodeCard, edgeSel)
	if err != nil {
		b.Fatal(err)
	}
	return est
}

// BenchmarkOptimizeScaling shows how each algorithm's optimization cost
// grows with pattern size — the theoretical complexity analysis of §3 made
// measurable. DP's exponential growth is why DPP exists.
func BenchmarkOptimizeScaling(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		pat := chainPattern(n)
		est := benchEstimator(b, pat)
		for _, m := range []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP} {
			if m == MethodDP && n > 8 {
				continue // DP at n=10 dominates the whole run
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, m), func(b *testing.B) {
				var plans int
				for i := 0; i < b.N; i++ {
					res, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
					if err != nil {
						b.Fatal(err)
					}
					plans = res.Counters.PlansConsidered
				}
				b.ReportMetric(float64(plans), "plans")
			})
		}
	}
}

// BenchmarkAblationSpacePrimitives measures the search-space primitives the
// optimizers are built from.
func BenchmarkAblationSpacePrimitives(b *testing.B) {
	pat := chainPattern(8)
	est := benchEstimator(b, pat)
	sp := newSpace(pat, est, testModel())
	s0 := *sp.at(sp.start())
	b.Run("expand-start", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp.expand(s0, moveOpts{}, noBound)
		}
	})
	b.Run("record-fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i&127 == 0 {
				sp.start() // every mask of the 8-node chain, over and over
			}
			sp.record(uint32(i<<1) & sp.allEdges)
		}
	})
}

// BenchmarkSearchPlanCold is the optimizer-search layer lane: one op is one
// search, plan cache and statistics out of the picture, over the deep-chain,
// wide-fan-out and bushy plan_cold twigs (12–13 nodes) with the pers
// statistics of golden_test.go. plans/op is Table 2's "plans considered".
func BenchmarkSearchPlanCold(b *testing.B) {
	shapes := []struct {
		name string
		twig int
	}{{"chain", 0}, {"fanout", 3}, {"bushy", 6}}
	for _, m := range []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy} {
		for _, sh := range shapes {
			pat := planColdTwig(b, sh.twig, 110000)
			est := persEstimator(b, pat)
			b.Run(fmt.Sprintf("%s/%s", m, sh.name), func(b *testing.B) {
				b.ReportAllocs()
				var plans int
				for i := 0; i < b.N; i++ {
					res, err := Optimize(context.Background(), pat, est, cost.DefaultModel(), m, nil)
					if err != nil {
						b.Fatal(err)
					}
					plans = res.Counters.PlansConsidered
				}
				b.ReportMetric(float64(plans), "plans/op")
			})
		}
	}
}
