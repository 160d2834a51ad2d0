package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sjos/internal/faultfs"
	"sjos/internal/pattern"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// TestScratchReuseAcrossExecutions runs the same plans over and over on
// pooled scratches, serially and eight ways at once, with every way an
// execution can end mixed in — to completion, cut short by Limit's early
// upstream Close, cancelled mid-scan, failed by a storage read error. Every
// execution that completes must return exactly the rows, in order, of
// referenceRun — one run on private memory, held to the brute-force matches —
// and no page may stay pinned. Race builds poison a released scratch, so an
// operator that kept a view of one past its execution fails here instead of
// returning the next execution's rows.
func TestScratchReuseAcrossExecutions(t *testing.T) {
	pat := pattern.MustParse("//a[.//b/c]//d")
	rng := rand.New(rand.NewSource(19))
	doc := xmltree.Fold(xmltree.RandomDocument(rng, 400, []string{"a", "b", "c", "d"}), 4)
	st, err := storage.BuildStore(doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	plans := shapePlans() // Anc pipelines, Desc joins under a Sort, bushy composites
	want := make([][]Tuple, len(plans))
	for i, p := range plans {
		if want[i] = referenceRun(t, &Context{Doc: doc, Store: st}, pat, p); len(want[i]) < 2*BatchRows {
			t.Fatalf("plan %d: %d rows, too few to span batches", i, len(want[i]))
		}
	}

	// execution runs plan pi once, ending it the way step says.
	var faulted atomic.Int32
	execution := func(step, pi int) error {
		p, rows := plans[pi], want[pi]
		switch step % 4 {
		case 0: // to completion
			got, err := tuples(Run(&Context{Doc: doc, Store: st}, pat, p))
			if err != nil || !exactEq(got, rows) {
				return errors.New("full run differs from the reference run")
			}
		case 1: // Limit closes the upstream tree early
			op, err := Build(pat, p)
			if err != nil {
				return err
			}
			k := 1 + step%(BatchRows+7)
			got, err := tuples(Collect(&Context{Doc: doc, Store: st}, NewLimit(op, k), pat.N()))
			if err != nil || !exactEq(got, rows[:k]) {
				return errors.New("limited run is not the reference run's prefix")
			}
		case 2: // cancelled on the third interrupt poll, inside the first scans
			cctx, cancel := context.WithCancel(context.Background())
			polls := 0
			ectx := &Context{Doc: doc, Store: st, Ctx: cctx, Interrupt: func() error {
				if polls++; polls == 3 {
					cancel()
				}
				return cctx.Err()
			}}
			if _, err := Run(ectx, pat, p); !errors.Is(err, context.Canceled) {
				return errors.New("cancelled run did not report context.Canceled")
			}
		case 3: // a read error, on a store of its own; a fault point past the run's reads never fires
			ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
			fst, err := storage.BuildStoreOn(ff, doc, 1)
			if err != nil {
				return err
			}
			ff.SetPolicy(faultfs.Policy{FailNthRead: 1 + step/4%3})
			got, err := tuples(Run(&Context{Doc: doc, Store: fst}, pat, p))
			switch {
			case err == nil && !exactEq(got, rows):
				return errors.New("run on the faulty store differs from the reference run")
			case err != nil && !errors.Is(err, faultfs.ErrInjected):
				return err
			case err != nil:
				faulted.Add(1)
			}
			if pinned := fst.PoolStats().Pinned; pinned != 0 {
				return errors.New("run on the faulty store left pages pinned")
			}
		}
		return nil
	}

	for step := 0; step < 100; step++ {
		if err := execution(step, step%len(plans)); err != nil {
			t.Fatalf("serial step %d: %v", step, err)
		}
	}
	if faulted.Load() == 0 {
		t.Fatal("no injected read error fired: the error exit is not exercised")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := g; step < g+16; step++ {
				if err := execution(step, (step+g)%len(plans)); err != nil {
					t.Errorf("worker %d step %d: %v", g, step, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	assertNoPins(t, st)
}

// TestReleasedScratchIsPoisoned checks the race-build tripwire itself: what
// an execution borrowed reads as InvalidNode once its scratch is released.
func TestReleasedScratchIsPoisoned(t *testing.T) {
	if !poisonScratch {
		t.Skip("scratch poisoning is compiled into race builds only")
	}
	sc := new(scratch)
	row := sc.tuple(sc.keep(Tuple{1, 2, 3}), 3)
	b := sc.batch(2)
	b.AppendRow(Tuple{4, 5})
	held := b.Row(0)
	sc.release()
	for _, id := range append(row, held...) {
		if id != xmltree.InvalidNode {
			t.Fatalf("released scratch still reads %v %v", row, held)
		}
	}
}
