package core

import (
	"math/rand"

	"sjos/internal/cost"
	"sjos/internal/pattern"
)

// RandomPlan generates one random valid evaluation plan by walking the
// status space with uniformly random moves (avoiding deadends). The paper
// uses such plans (§4.2.1) to quantify the spread between good and bad
// plans.
func RandomPlan(pat *pattern.Pattern, est *Estimator, model cost.Model, rng *rand.Rand) (*Result, error) {
	sp := newSpace(pat, est, model)
	if sp.numEdges == 0 {
		return sp.singleNode("Random"), nil
	}
	// The one-step deadend filter below cannot see traps two moves ahead
	// (a successor all of whose own successors are deadends), so a walk
	// can occasionally strand; restart until it completes. Theorem 3.1
	// guarantees completing walks exist.
	for attempt := 0; attempt < 1000; attempt++ {
		si := sp.start()
		for si >= 0 && sp.at(si).edges != sp.allEdges {
			live := sp.expand(*sp.at(si), moveOpts{liveOnly: true}, noBound) // avoid immediate deadends
			if len(live) == 0 {
				si = -1 // stranded in a deeper trap; restart the walk
			} else {
				si = sp.add(live[rng.Intn(len(live))], si)
			}
		}
		if si >= 0 {
			return &Result{
				Plan:      sp.finalize(si),
				Cost:      sp.at(si).cost,
				Algorithm: "Random",
			}, nil
		}
	}
	return nil, errNoPlan
}

// BadPlan samples `samples` random plans and returns the estimated-worst of
// them — the paper's "bad plan" baseline ("randomly (but not exhaustively)
// generated ... and picked the worst of these plans").
func BadPlan(pat *pattern.Pattern, est *Estimator, model cost.Model, samples int, seed int64) (*Result, error) {
	if samples < 1 {
		samples = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var worst *Result
	for i := 0; i < samples; i++ {
		r, err := RandomPlan(pat, est, model, rng)
		if err != nil {
			return nil, err
		}
		if worst == nil || r.Cost > worst.Cost {
			worst = r
		}
	}
	worst.Algorithm = "Bad"
	return worst, nil
}
