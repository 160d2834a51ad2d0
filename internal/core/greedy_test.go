package core

import (
	"context"
	"strings"
	"testing"

	"sjos/internal/pattern"
)

// TestGreedyPlansAreSortFreeAndAboveOptimal: greedy builds FP-style
// pipelined plans, so they must contain no sorts and can never beat the
// exhaustive DP optimum.
func TestGreedyPlansAreSortFreeAndAboveOptimal(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.MustParse("//a//b"),
		pattern.MustParse("//a/b//c"),
		pattern.MustParse("//a[b][c]"),
		pattern.MustParse("//a[.//b/c]//d"),
		figure1Pattern(),
		pattern.MustParse("//a#[.//b/c]//d"),
		pattern.MustParse("//a[b/c#]//d"),
	}
	for pi, pat := range pats {
		for seed := int64(0); seed < 10; seed++ {
			est := skewedEstimator(t, pat, 555+100*int64(pi)+seed)
			g, err := Optimize(context.Background(), pat, est, testModel(), MethodGreedy, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Plan.FullyPipelined() {
				t.Fatalf("pattern %d: greedy produced sorts:\n%s", pi, g.Plan.Format(pat))
			}
			if err := g.Plan.Validate(pat, true); err != nil {
				t.Fatalf("pattern %d: invalid plan: %v", pi, err)
			}
			dp, err := Optimize(context.Background(), pat, est, testModel(), MethodDP, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.Cost < dp.Cost-1e-6*dp.Cost {
				t.Errorf("pattern %d seed %d: greedy cost %v below optimum %v",
					pi, seed, g.Cost, dp.Cost)
			}
		}
	}
}

// TestGreedySearchEffortConstant: greedy costs exactly one plan regardless
// of pattern size — the point of skipping the search entirely.
func TestGreedySearchEffortConstant(t *testing.T) {
	for _, src := range []string{"//a//b", "//a[.//b/c]//d", "//manager[.//employee/name]//manager/department/name"} {
		pat := pattern.MustParse(src)
		est := skewedEstimator(t, pat, 7)
		g, err := Optimize(context.Background(), pat, est, testModel(), MethodGreedy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.Counters.PlansConsidered, pat.NumEdges(); got != want {
			t.Errorf("%s: PlansConsidered = %d, want %d (one join decision per edge)", src, got, want)
		}
		dp, err := Optimize(context.Background(), pat, est, testModel(), MethodDP, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pat.NumEdges() > 1 && g.Counters.PlansConsidered >= dp.Counters.PlansConsidered {
			t.Errorf("%s: greedy considered %d plans, DP %d — greedy should be far below",
				src, g.Counters.PlansConsidered, dp.Counters.PlansConsidered)
		}
	}
}

// TestGreedyJoinsMostSelectiveFirst: the child with the smallest postings
// list must be the first join under the root, pushing the tight binding to
// the bottom of the pipeline.
func TestGreedyJoinsMostSelectiveFirst(t *testing.T) {
	pat := pattern.MustParse("//a[b][c]")
	est, err := NewManualEstimator(pat,
		[]float64{10000, 5, 8000},
		[]float64{0, 0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Optimize(context.Background(), pat, est, testModel(), MethodGreedy, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Free output order: the plan is rooted at the pattern root (the final,
	// flexible join may order its output by either endpoint), and the
	// 5-posting leaf (node 1) must join before the 8000-posting one.
	top := g.Plan
	if top.OrderedBy != 0 && top.OrderedBy != 2 {
		t.Fatalf("plan ordered by %d, want a final-join endpoint\n%s", top.OrderedBy, top.Format(pat))
	}
	if top.DescNode != 2 || top.Left.DescNode != 1 {
		t.Errorf("join order wrong: want node 1 (smallest postings) joined first, node 2 last\n%s",
			top.Format(pat))
	}
}

// TestGreedyEmptyLeafTerminatesEarly: a zero-postings leaf makes the whole
// result provably empty; the plan must still be valid, the empty leaf must
// join first (score 0 sorts first), and the remaining children attach in
// pattern order — ranking has terminated.
func TestGreedyEmptyLeafTerminatesEarly(t *testing.T) {
	pat := pattern.MustParse("//a[b][c][d]")
	est, err := NewManualEstimator(pat,
		[]float64{1000, 2000, 0, 3000},
		[]float64{0, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Optimize(context.Background(), pat, est, testModel(), MethodGreedy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Plan.Validate(pat, true); err != nil {
		t.Fatalf("invalid plan: %v\n%s", err, g.Plan.Format(pat))
	}
	// Expected shape: ((a ⋈ c) ⋈ b) ⋈ d — the empty node kills the
	// intermediate in the very first join, then pattern order.
	top := g.Plan
	if top.DescNode != 3 || top.Left.DescNode != 1 || top.Left.Left.DescNode != 2 {
		t.Errorf("want empty node 2 joined first, then nodes 1, 3 in pattern order\n%s",
			top.Format(pat))
	}
}

// TestParseMethodFlexible: the satellite contract — case-insensitive
// parsing, greedy shorthands, and an error message that enumerates every
// valid name.
func TestParseMethodFlexible(t *testing.T) {
	cases := map[string]Method{
		"dp":      MethodDP,
		"DPP":     MethodDPP,
		"dpp'":    MethodDPPNoLookahead,
		"dpap-eb": MethodDPAPEB,
		"DPAP-ld": MethodDPAPLD,
		"fp":      MethodFP,
		"Greedy":  MethodGreedy,
		"greedy":  MethodGreedy,
		"GREEDY":  MethodGreedy,
		"g":       MethodGreedy,
	}
	for in, want := range cases {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseMethod("quantum")
	if err == nil {
		t.Fatal("ParseMethod accepted garbage")
	}
	for _, name := range MethodNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention valid method %q", err, name)
		}
	}
	if len(MethodNames()) != 7 {
		t.Errorf("MethodNames() = %v, want 7 names", MethodNames())
	}
}
