package sjos

// Chaos differential suite: every optimizer method's plan runs over a store
// whose page file injects read failures and corruption at swept fault
// points. The contract is differential —
// each run must either produce exactly the brute-force reference's count or
// return the injected (typed) error. Never a wrong
// answer, never a panic, never a pinned frame left behind.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"sjos/internal/faultfs"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// chaosDB builds a one-document corpus whose pages live on a fault-injecting file
// (initially fault-free) with a one-frame buffer pool, so queries perform
// physical reads that the policy can intercept: a scan reads posting pages
// only, each holding thousands of compressed postings, and a join that
// alternates between its inputs' pages re-reads them only if the pool cannot
// hold both.
func chaosDB(t *testing.T, seed int64, n int) (*Corpus, *faultfs.File) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	doc := xmltree.RandomDocument(rng, n, []string{"a", "b", "c"})
	ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
	return docCorpus(t, doc, &CorpusOptions{PoolFrames: 1, ShardPageFile: storeOn(ff)}), ff
}

// runChaos executes one plan under the current fault policy and enforces the
// invariants that hold regardless of outcome: no panic-typed error, no
// leaked pins.
func runChaos(t *testing.T, db *Corpus, pat *Pattern, p *Plan, opts QueryOptions) (*CorpusRunResult, error) {
	t.Helper()
	res, err := db.Run(context.Background(), pat, p, opts)
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatalf("panic escaped as error: %v\n%s", pe, pe.Stack)
	}
	if pinned := db.Metrics().Pool.Pinned; pinned != 0 {
		t.Fatalf("pin leak: %d frames still pinned", pinned)
	}
	return res, err
}

// faultPoints picks fault ordinals spanning a mode's read count: the first
// read, mid-flight, and the last.
func faultPoints(reads int) []int {
	if reads < 1 {
		reads = 1
	}
	pts := []int{1}
	for _, p := range []int{reads / 2, reads} {
		if p > pts[len(pts)-1] {
			pts = append(pts, p)
		}
	}
	return pts
}

func TestChaosDifferential(t *testing.T) {
	db, ff := chaosDB(t, 42, 12000) // ~10 physical reads a run
	pat := MustParsePattern("//a//b//c")
	methods := []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
	want := len(referenceMatches(db, pat))
	var failFired, corruptFired, healed int
	for _, m := range methods {
		opt, err := db.OptimizeContext(context.Background(), pat, m, 0)
		if err != nil {
			t.Fatalf("%v: optimize: %v", m, err)
		}
		// Fault-free baseline; also measures the run's physical read
		// count so the fault sweep covers its real I/O schedule.
		ff.SetPolicy(faultfs.Policy{})
		base, err := runChaos(t, db, pat, opt.Plan, QueryOptions{})
		if err != nil {
			t.Fatalf("%v: baseline: %v", m, err)
		}
		if base.Count != want {
			t.Fatalf("%v: baseline count = %d, reference %d", m, base.Count, want)
		}
		reads := int(ff.Reads())
		for _, p := range faultPoints(reads) {
			// Permanent read failure: correct result (fault point past
			// this run's reads) or the injected error.
			ff.SetPolicy(faultfs.Policy{FailNthRead: p})
			if res, err := runChaos(t, db, pat, opt.Plan, QueryOptions{}); err != nil {
				failFired++
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("%v failNth=%d: error = %v, want injected", m, p, err)
				}
			} else if res.Count != want {
				t.Fatalf("%v failNth=%d: count = %d, want %d", m, p, res.Count, want)
			}

			// Transient read failure: the pool's retry loop must heal it
			// — the full, correct result, no error.
			ff.SetPolicy(faultfs.Policy{FailNthRead: p, Transient: true})
			res, err := runChaos(t, db, pat, opt.Plan, QueryOptions{})
			if err != nil {
				t.Fatalf("%v transient failNth=%d: %v", m, p, err)
			}
			if res.Count != want {
				t.Fatalf("%v transient failNth=%d: count = %d, want %d", m, p, res.Count, want)
			}
			if ff.FaultsInjected() > 0 {
				healed++
			}

			// Permanent corruption: checksum verification must catch the
			// flipped bit and surface a typed CorruptPageError.
			ff.SetPolicy(faultfs.Policy{CorruptNthRead: p})
			if res, err := runChaos(t, db, pat, opt.Plan, QueryOptions{}); err != nil {
				corruptFired++
				var ce *CorruptPageError
				if !errors.As(err, &ce) {
					t.Fatalf("%v corruptNth=%d: error = %v, want *CorruptPageError", m, p, err)
				}
			} else if res.Count != want {
				t.Fatalf("%v corruptNth=%d: count = %d, want %d", m, p, res.Count, want)
			}

			// Transient corruption (a torn read): one bad copy, re-read
			// clean — must heal to the correct result.
			ff.SetPolicy(faultfs.Policy{CorruptNthRead: p, Transient: true})
			before := db.Metrics().Pool.ChecksumFailures
			res, err = runChaos(t, db, pat, opt.Plan, QueryOptions{})
			if err != nil {
				t.Fatalf("%v transient corruptNth=%d: %v", m, p, err)
			}
			if res.Count != want {
				t.Fatalf("%v transient corruptNth=%d: count = %d, want %d", m, p, res.Count, want)
			}
			if ff.FaultsInjected() > 0 && db.Metrics().Pool.ChecksumFailures <= before {
				t.Fatalf("%v transient corruptNth=%d: corruption injected but no checksum failure counted", m, p)
			}
		}
	}
	// The sweep must actually exercise the error paths, not just baselines.
	if failFired == 0 || corruptFired == 0 || healed == 0 {
		t.Fatalf("chaos sweep too tame: %d fail, %d corrupt, %d healed runs fired", failFired, corruptFired, healed)
	}
	// The store's injected-fault count surfaces through the metrics probe.
	if db.Metrics().FaultsInjected == 0 {
		t.Fatal("Metrics().FaultsInjected = 0 after a chaos sweep")
	}
}

// TestChaosProbabilistic drives seeded random fault injection across every
// method: with transient faults and retries every run must come back correct.
func TestChaosProbabilistic(t *testing.T) {
	db, ff := chaosDB(t, 43, 4000)
	pat := MustParsePattern("//a//b")
	base, err := db.Run(context.Background(), pat, mustOptimize(t, db, pat, MethodDP).Plan, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy} {
		p := mustOptimize(t, db, pat, m).Plan
		ff.SetPolicy(faultfs.Policy{FailProb: 0.05, Seed: int64(m) + 1, Transient: true})
		res, err := runChaos(t, db, pat, p, QueryOptions{})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Count != base.Count {
			t.Fatalf("%v: count = %d, want %d", m, res.Count, base.Count)
		}
	}
	ff.SetPolicy(faultfs.Policy{})
}

// TestChaosValueProbe sweeps fault injection over a value-index probe
// plan: the probe's compressed postings reads go through the same buffer
// pool, checksum and retry path as everything else, so each run must
// return the fault-free count or a typed injected/corruption error — and
// transient faults must heal. The scan+filter lane over the same faulty
// store is the correctness oracle. Postings spanning several pages behind a
// one-frame pool keep every run reading the file, so the sweep has reads to
// fail.
func TestChaosValueProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	doc := randomValueXML(rng, 40000, []string{"a", "b", "c"})
	ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
	db := xmlCorpus(t, doc, &CorpusOptions{PoolFrames: 1, ShardPageFile: storeOn(ff)})
	pat := MustParsePattern(`//a[b = "w2"]`)
	opt := mustOptimize(t, db, pat, MethodDPP)
	if !containsOp(opt.Plan.Format(pat), "ValueIndexScan") {
		t.Fatalf("chaos fixture plan has no value probe:\n%s", opt.Plan.Format(pat))
	}
	// Oracle: the plan's scan arm (scan+filter) on the same (currently
	// fault-free) store.
	ff.SetPolicy(faultfs.Policy{})
	want, _, err := execCount(db, pat, ScanArm(opt.Plan))
	if err != nil {
		t.Fatal(err)
	}
	var fired, healed int
	ff.SetPolicy(faultfs.Policy{})
	base, err := runChaos(t, db, pat, opt.Plan, QueryOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if base.Count != want {
		t.Fatalf("baseline count = %d, oracle %d", base.Count, want)
	}
	reads := int(ff.Reads())
	for _, p := range faultPoints(reads) {
		ff.SetPolicy(faultfs.Policy{FailNthRead: p})
		if res, err := runChaos(t, db, pat, opt.Plan, QueryOptions{}); err != nil {
			fired++
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("failNth=%d: error = %v, want injected", p, err)
			}
		} else if res.Count != want {
			t.Fatalf("failNth=%d: count = %d, want %d", p, res.Count, want)
		}
		ff.SetPolicy(faultfs.Policy{FailNthRead: p, Transient: true})
		res, err := runChaos(t, db, pat, opt.Plan, QueryOptions{})
		if err != nil {
			t.Fatalf("transient failNth=%d: %v", p, err)
		}
		if res.Count != want {
			t.Fatalf("transient failNth=%d: count = %d, want %d", p, res.Count, want)
		}
		if ff.FaultsInjected() > 0 {
			healed++
		}
		ff.SetPolicy(faultfs.Policy{CorruptNthRead: p})
		if res, err := runChaos(t, db, pat, opt.Plan, QueryOptions{}); err != nil {
			var ce *CorruptPageError
			if !errors.As(err, &ce) {
				t.Fatalf("corruptNth=%d: error = %v, want *CorruptPageError", p, err)
			}
		} else if res.Count != want {
			t.Fatalf("corruptNth=%d: count = %d, want %d", p, res.Count, want)
		}
	}
	ff.SetPolicy(faultfs.Policy{})
	if fired == 0 || healed == 0 {
		t.Fatalf("value-probe chaos sweep too tame: %d fail runs fired, %d healed", fired, healed)
	}
}

// containsOp reports whether a plan rendering mentions an operator name.
func containsOp(plan, op string) bool {
	return strings.Contains(plan, op)
}
