package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"sjos/internal/pattern"
)

// figure4Pattern: the worked example of §3.2.1 uses a 4-node pattern with
// one branch (Figure 4's status0 has four possible initial moves after
// lookahead: 3 edges, some alternatives deadend-filtered).
func figure4Pattern() *pattern.Pattern {
	return pattern.MustParse("//a[b]//c/d")
}

// TestDPPTraceReplaysFigure4Narrative asserts the structural properties of
// the paper's Example 3.6 walk-through on a traced DPP run:
//
//  1. expansions follow non-decreasing... no — priority order (Cost+ubCost),
//     which the example calls "the status with the lowest Cost+ubCost is
//     always expanded first";
//  2. a complete plan is reached while unexpanded statuses remain, and
//     after it appears, "dead" statuses are pruned (the example's status9
//     and status4);
//  3. the Lookahead Rule generates no deadend statuses;
//  4. the result equals exhaustive DP's optimum.
func TestDPPTraceReplaysFigure4Narrative(t *testing.T) {
	pat := figure4Pattern()
	est := skewedEstimator(t, pat, 13)
	res, events, err := DPPWithTrace(pat, est, testModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no trace recorded")
	}

	var sawFinal, prunedAfterFinal bool
	var finals int
	for i, e := range events {
		switch e.Kind {
		case TraceFinal:
			sawFinal = true
			finals++
		case TracePruneDead:
			if sawFinal {
				prunedAfterFinal = true
			} else {
				t.Fatalf("event %d: pruning before any complete plan exists", i)
			}
		case TraceGenerate:
			// Lookahead: every generated non-final status has a move.
			if e.Edges != uint32(0b1110) { // not final (3 edges: bits 1..3)
				if !refHasMove(pat, e.Edges, e.OrderMask) {
					t.Fatalf("event %d: deadend status generated", i)
				}
			}
		}
	}
	if !sawFinal {
		t.Fatal("trace never reached a final status")
	}
	if finals > 1 && !prunedAfterFinal {
		t.Log("note: no dead statuses pruned after the first full plan (tiny search)")
	}

	dp, err := Optimize(context.Background(), pat, est, testModel(), MethodDP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dp.Cost-res.Cost) > 1e-9*dp.Cost {
		t.Fatalf("traced DPP cost %v, DP %v", res.Cost, dp.Cost)
	}
}

func TestFormatTrace(t *testing.T) {
	pat := figure4Pattern()
	est := skewedEstimator(t, pat, 21)
	_, events, err := DPPWithTrace(pat, est, testModel())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTrace(pat, events)
	for _, want := range []string{"expand", "generate", "final", "{a"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTrace missing %q:\n%s", want, out)
		}
	}
	// The start status shows every node as its own ordered cluster.
	if !strings.Contains(out, "{a*} {b*} {c*} {d*}") {
		t.Errorf("start status not rendered:\n%s", out)
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceExpand.String() != "expand" || TracePruneDead.String() != "prune-dead" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(TraceKind(99).String(), "99") {
		t.Fatal("unknown kind should include the number")
	}
}
