package exec

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// parallelTestPlans returns structurally different valid plans for the
// 4-node pattern //a[.//b/c]//d (a=0 b=1 c=2 d=3): fully-pipelined bushy,
// left-deep with a sort, and bushy over two composites.
func parallelTestPlans() []*plan.Node {
	return []*plan.Node{
		plan.NewJoin(
			plan.NewJoin(plan.NewIndexScan(0),
				plan.NewJoin(plan.NewIndexScan(1), plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoAnc),
				0, 1, pattern.Descendant, plan.AlgoAnc),
			plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoAnc),
		plan.NewJoin(
			plan.NewSort(
				plan.NewJoin(
					plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc),
					plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoDesc),
				0),
			plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoDesc),
		plan.NewJoin(
			plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoAnc),
			plan.NewJoin(plan.NewIndexScan(1), plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoAnc),
			0, 1, pattern.Descendant, plan.AlgoAnc),
	}
}

// exactEq is element-wise equality in sequence order — the parallel driver
// promises the serial order, not just the serial multiset.
func exactEq(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestParallelRunMatchesSerial checks the core promise on random folded
// documents: for every plan shape and K ∈ {1,2,3,7}, ParallelExec.Run
// returns exactly the serial result sequence (referenceRun: one run on
// private memory, itself held to brute force), and the merged OutputTuples
// counter matches.
func TestParallelRunMatchesSerial(t *testing.T) {
	pat := pattern.MustParse("//a[.//b/c]//d")
	plans := parallelTestPlans()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		base := xmltree.RandomDocument(rng, 2+rng.Intn(100), []string{"a", "b", "c", "d"})
		doc := xmltree.Fold(base, 1+rng.Intn(5))
		for pi, p := range plans {
			serialCtx := newCtx(t, doc)
			want := referenceRun(t, serialCtx, pat, p)
			for _, k := range []int{1, 2, 3, 7} {
				pe := &ParallelExec{Workers: k, Partitions: k}
				pctx := newCtx(t, doc)
				got, err := tuples(pe.Run(context.Background(), pctx, pat, p))
				if err != nil {
					t.Fatalf("trial %d plan %d k=%d: %v", trial, pi, k, err)
				}
				if !exactEq(got, want) {
					t.Fatalf("trial %d plan %d k=%d: parallel output differs (%d vs %d tuples)",
						trial, pi, k, len(got), len(want))
				}
				if pctx.Stats.OutputTuples != serialCtx.Stats.OutputTuples {
					t.Fatalf("trial %d plan %d k=%d: OutputTuples %d, serial %d",
						trial, pi, k, pctx.Stats.OutputTuples, serialCtx.Stats.OutputTuples)
				}
			}
		}
	}
}

// TestParallelRunCountMatchesSerial checks the count-only path.
func TestParallelRunCountMatchesSerial(t *testing.T) {
	pat := pattern.MustParse("//a[.//b/c]//d")
	plans := parallelTestPlans()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		base := xmltree.RandomDocument(rng, 2+rng.Intn(120), []string{"a", "b", "c", "d"})
		doc := xmltree.Fold(base, 1+rng.Intn(4))
		for pi, p := range plans {
			want, err := RunCount(newCtx(t, doc), pat, p)
			if ref := len(ReferenceMatches(doc, pat)); err != nil || want != ref {
				t.Fatalf("trial %d plan %d serial: count %d, brute force %d, err %v", trial, pi, want, ref, err)
			}
			for _, k := range []int{2, 5} {
				pe := &ParallelExec{Workers: k, Partitions: k}
				pctx := newCtx(t, doc)
				got, err := pe.RunCount(context.Background(), pctx, pat, p)
				if err != nil {
					t.Fatalf("trial %d plan %d k=%d: %v", trial, pi, k, err)
				}
				if got != want {
					t.Fatalf("trial %d plan %d k=%d: count %d, serial %d", trial, pi, k, got, want)
				}
				if pctx.Stats.OutputTuples != want {
					t.Fatalf("trial %d plan %d k=%d: OutputTuples %d, want %d",
						trial, pi, k, pctx.Stats.OutputTuples, want)
				}
			}
		}
	}
}

// TestParallelRunLimitIsSerialPrefix checks that RunLimit(n) returns
// exactly the first n tuples of the serial output for every n.
func TestParallelRunLimitIsSerialPrefix(t *testing.T) {
	pat := pattern.MustParse("//a[.//b/c]//d")
	rng := rand.New(rand.NewSource(11))
	base := xmltree.RandomDocument(rng, 90, []string{"a", "b", "c", "d"})
	doc := xmltree.Fold(base, 6)
	for pi, p := range parallelTestPlans() {
		full := referenceRun(t, newCtx(t, doc), pat, p)
		for n := 0; n <= len(full)+2; n++ {
			pe := &ParallelExec{Workers: 3, Partitions: 5}
			pctx := newCtx(t, doc)
			got, err := tuples(pe.RunLimit(context.Background(), pctx, pat, p, n))
			if err != nil {
				t.Fatalf("plan %d limit %d: %v", pi, n, err)
			}
			want := full
			if n < len(full) {
				want = full[:n]
			}
			if !exactEq(got, want) {
				t.Fatalf("plan %d limit %d: got %d tuples, want prefix of %d",
					pi, n, len(got), len(want))
			}
			if pctx.Stats.OutputTuples != len(want) {
				t.Fatalf("plan %d limit %d: OutputTuples %d, want %d",
					pi, n, pctx.Stats.OutputTuples, len(want))
			}
		}
	}
}

// TestParallelRunCancelled checks that a pre-cancelled context aborts a
// multi-partition run with the context's error.
func TestParallelRunCancelled(t *testing.T) {
	pat := pattern.MustParse("//a[.//b/c]//d")
	rng := rand.New(rand.NewSource(13))
	doc := xmltree.Fold(xmltree.RandomDocument(rng, 80, []string{"a", "b", "c", "d"}), 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pe := &ParallelExec{Workers: 2, Partitions: 4}
	if _, err := pe.Run(ctx, newCtx(t, doc), pat, parallelTestPlans()[0]); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// TestParallelRunDegenerate covers the single-partition fast path (K=1 and
// a pattern whose root tag is absent from the document).
func TestParallelRunDegenerate(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	p := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	want := referenceRun(t, newCtx(t, doc), pat, p)
	pe := &ParallelExec{Workers: 1, Partitions: 1}
	got, err := tuples(pe.Run(context.Background(), newCtx(t, doc), pat, p))
	if err != nil {
		t.Fatal(err)
	}
	if !exactEq(got, want) {
		t.Fatalf("K=1: got %d tuples, want %d", len(got), len(want))
	}

	missing := pattern.MustParse("//ghost//name")
	mp := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	pe = &ParallelExec{Workers: 4, Partitions: 4}
	out, err := tuples(pe.Run(context.Background(), newCtx(t, doc), missing, mp))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("absent root tag: got %d tuples, want 0", len(out))
	}
}
