package main

import (
	"math/rand"
)

// workload is one traffic mix. Names are fixed: later issues cite them, and
// metrics_test.go holds them equal to BENCHMARK.json.
type workload struct {
	name string
	// Passes of the cycle in the timed phase of a traced and of a -quick
	// run; the end-to-end run is sized by time, churn_mixed by churnPasses.
	tracePasses, quickPasses int
}

var workloads = []workload{
	{"point_cached", 10, 2},
	{"bulk_results", 1, 1},
	{"plan_cold", 4, 1},
	{"churn_mixed", 3, 1},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// inputs is everything one run of a workload sends, made from the seed. The
// end-to-end run and the traced run build it the same way, so a traced sample
// is a prefix of the end-to-end phase.
type inputs struct {
	docs []*document
	// cycle returns the steps of one pass of the timed phase. Every pass has
	// the same steps in the same classes; only plan_cold's strings change
	// from pass to pass.
	cycle  func(pass int) []step
	verify []request // checked in full before the timed phase, which also warms their plans
	post   []request // asked of the server restarted after the crash
	// passesPerSecond > 0: the timed phase is this many passes per second of
	// --seconds instead of running by the clock. churn_mixed needs it: how
	// much was written decides how long the log is, and with it recover_s
	// and wal_bytes_per_user_byte, which must repeat.
	passesPerSecond float64
}

// planColdVerified is how many plan_cold strings get a fully decoded check
// before the timed phase; they come from a pass the phase will never reach.
const (
	planColdVerified   = 16 // one whole pass
	planColdVerifyPass = 1 << 12
)

// churnPassesPerSecond sizes churn_mixed's timed phase: one cycle takes
// about 0.65 s at the seed commit, so three in two seconds of --seconds fill
// it.
const churnPassesPerSecond = 1.5

func newInputs(name string, size sizing, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	docs, err := genCorpus(size.docs)
	if err != nil {
		return nil, err
	}
	in := &inputs{docs: docs}
	fixed := func(steps []step) func(int) []step { return func(int) []step { return steps } }
	switch name {
	case "point_cached":
		list, err := pointRequests(rng, docs)
		if err != nil {
			return nil, err
		}
		if err := resolve(list, docs); err != nil {
			return nil, err
		}
		in.cycle, in.verify, in.post = fixed(readSteps(list)), list, list
	case "bulk_results":
		list := bulkRequests(rng)
		if err := resolve(list, docs); err != nil {
			return nil, err
		}
		in.cycle, in.verify = fixed(readSteps(list)), distinct(list)
		// After the crash the counts are checked but the 23 MB of rows are
		// not fetched a second time: the verify pass held them to the oracle.
		for _, r := range in.verify {
			in.post = append(in.post, request{query: r.query, countOnly: true})
		}
	case "plan_cold":
		cold := newPlanColdList(rng)
		// Step j of every pass is of class j; the strings are made as they
		// are needed and resolved against the oracle after the clock stops.
		in.cycle = func(pass int) []step {
			reqs := cold.pass(pass)
			steps := make([]step, len(reqs))
			for j := range reqs {
				steps[j] = step{read: &reqs[j], class: j}
			}
			return steps
		}
		in.verify = cold.pass(planColdVerifyPass)[:planColdVerified]
		if err := resolve(in.verify, docs); err != nil {
			return nil, err
		}
		in.post = in.verify
	case "churn_mixed":
		list, err := pointRequests(rng, docs)
		if err != nil {
			return nil, err
		}
		steps, err := churnCycle(list, docs)
		if err != nil {
			return nil, err
		}
		in.cycle, in.passesPerSecond = fixed(steps), churnPassesPerSecond
		// Whole cycles leave the corpus as they found it, so the same
		// answers hold before the timed phase and after the crash.
		in.verify = append(list, request{query: churnTwig})
		if err := resolve(in.verify, docs); err != nil {
			return nil, err
		}
		in.post = in.verify
	}
	return in, nil
}

// distinct drops repeated requests, keeping first occurrences.
func distinct(reqs []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range reqs {
		if p := r.path(); !seen[p] {
			seen[p] = true
			out = append(out, r)
		}
	}
	return out
}
