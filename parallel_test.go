package sjos

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// TestParallelExecuteProperty is the facade-level property test: on random
// documents and random twigs, ExecuteParallel with K ∈ {1,2,3,7} returns
// exactly the serial result sequence — same matches, same document order —
// and the same OutputTuples total. testing/quick drives the seed space.
func TestParallelExecuteProperty(t *testing.T) {
	methods := []Method{MethodDP, MethodDPP, MethodFP}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tags := []string{"a", "b", "c", "d"}
		db, err := LoadXMLString(randomXML(rng, 20+rng.Intn(200), tags), nil)
		if err != nil {
			t.Logf("seed %d: load: %v", seed, err)
			return false
		}
		for q := 0; q < 3; q++ {
			pat := randomTwig(rng, tags, 2+rng.Intn(4))
			res, err := db.Optimize(pat, methods[rng.Intn(len(methods))], 0)
			if err != nil {
				t.Logf("seed %d: optimize %s: %v", seed, pat, err)
				return false
			}
			want, wantStats, err := execAll(db, pat, res.Plan)
			if err != nil {
				t.Logf("seed %d: serial %s: %v", seed, pat, err)
				return false
			}
			for _, k := range []int{1, 2, 3, 7} {
				got, gotStats, err := execParallel(db, pat, res.Plan, k)
				if err != nil {
					t.Logf("seed %d k=%d: %s: %v", seed, k, pat, err)
					return false
				}
				if len(got) != len(want) {
					t.Logf("seed %d k=%d: %s: %d matches, serial %d",
						seed, k, pat, len(got), len(want))
					return false
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Logf("seed %d k=%d: %s: match %d differs", seed, k, pat, i)
						return false
					}
				}
				if gotStats.OutputTuples != wantStats.OutputTuples {
					t.Logf("seed %d k=%d: %s: OutputTuples %d, serial %d",
						seed, k, pat, gotStats.OutputTuples, wantStats.OutputTuples)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelStatsMatchSerial compares the merged parallel counters with
// serial execution on the personnel benchmark workload. The semantic
// counters (OutputTuples, SortedTuples) must match exactly: they count real
// tuples, and the partitions produce exactly the serial tuple set.
// ScannedTuples and StackOps measure physical work, which can differ by a
// few units per partition boundary — a streaming join stops consuming its
// left input when the right side exhausts, and serial and partitioned runs
// reach that point at different places — so those are held to a 1%
// tolerance. BufferedPairs is held with them: an Anc join hands the bottom
// ancestor's pairs to its batch as it forms them, no longer a whole ancestor
// ahead of demand, so how many it has formed when its consumer stops pulling
// depends on where the batch boundaries fall, and a partition moves them.
func TestParallelStatsMatchSerial(t *testing.T) {
	db, err := GenerateDataset("pers", 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//manager//employee/name",
		"//manager[.//employee/name]//manager/department/name",
		"//manager/department[name]",
	}
	for _, src := range queries {
		pat := MustParsePattern(src)
		res, err := db.Optimize(pat, MethodDPP, 0)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		_, serial, err := execAll(db, pat, res.Plan)
		if err != nil {
			t.Fatalf("%s serial: %v", src, err)
		}
		for _, k := range []int{2, 4} {
			_, par, err := execParallel(db, pat, res.Plan, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", src, k, err)
			}
			if par.OutputTuples != serial.OutputTuples ||
				par.SortedTuples != serial.SortedTuples {
				t.Errorf("%s k=%d: semantic counters diverge: parallel %+v, serial %+v",
					src, k, par, serial)
			}
			within := func(got, want int) bool {
				d := got - want
				if d < 0 {
					d = -d
				}
				return d*100 <= want
			}
			if !within(par.ScannedTuples, serial.ScannedTuples) ||
				!within(par.StackOps, serial.StackOps) ||
				!within(par.BufferedPairs, serial.BufferedPairs) {
				t.Errorf("%s k=%d: work counters off by >1%%: parallel %+v, serial %+v",
					src, k, par, serial)
			}
		}
	}
}

// TestParallelViewRouting checks WithParallelism: the view routes Execute,
// ExecuteCount and ExecuteLimit through the parallel driver while the
// original database stays serial, and both agree.
func TestParallelViewRouting(t *testing.T) {
	db := openDB(t)
	if db.Parallelism() != 0 {
		t.Fatalf("fresh database parallelism = %d, want 0", db.Parallelism())
	}
	pdb := db.WithParallelism(3)
	if pdb.Parallelism() != 3 || db.Parallelism() != 0 {
		t.Fatalf("parallelism: view %d (want 3), base %d (want 0)",
			pdb.Parallelism(), db.Parallelism())
	}
	if auto := db.WithParallelism(0).Parallelism(); auto < 1 {
		t.Fatalf("WithParallelism(0) resolved to %d workers", auto)
	}
	pat := MustParsePattern("//manager//name")
	res, err := db.Optimize(pat, MethodDPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execAll(db, pat, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := execAll(pdb, pat, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel view Execute: %d matches, serial %d", len(got), len(want))
	}
	n, _, err := execCount(pdb, pat, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("parallel view ExecuteCount = %d, want %d", n, len(want))
	}
	if len(want) > 1 {
		lim, _, err := execLimit(pdb, pat, res.Plan, len(want)-1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lim, want[:len(want)-1]) {
			t.Fatalf("parallel view ExecuteLimit: got %d, want prefix %d",
				len(lim), len(want)-1)
		}
	}
}

// TestParallelSharedDatabase hammers one shared Database from many
// goroutines mixing serial and parallel execution — the -race companion to
// the property test: the store, buffer pool and parallel driver must be
// safe for concurrent use.
func TestParallelSharedDatabase(t *testing.T) {
	db := openDB(t)
	pat := MustParsePattern("//manager[.//employee]//name")
	res, err := db.Optimize(pat, MethodDPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := execAll(db, pat, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				var got []Match
				var err error
				if g%2 == 0 {
					got, _, err = execParallel(db, pat, res.Plan, 1+g%4)
				} else {
					got, _, err = execAll(db, pat, res.Plan)
				}
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: result diverged (%d vs %d matches)",
						g, len(got), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
