package exec

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"sjos/internal/faultfs"
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// faultyStore builds a store whose page file starts failing permanently at
// the failNth physical read (faultfs.Policy semantics: the Nth and every
// later read fail). The buffer pool is sized at 1 frame so almost every
// access is a physical read. Scans read posting pages only, and a page holds
// thousands of compressed postings, so the documents below are sized for the
// fault point to fall mid-stream.
func faultyStore(t *testing.T, doc *xmltree.Document, failNth int) *storage.Store {
	t.Helper()
	ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
	st, err := storage.BuildStoreOn(ff, doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetPolicy(faultfs.Policy{FailNthRead: failNth})
	return st
}

// assertNoPins is the pin-leak regression check: after any execution —
// successful or failed — every buffer-pool page must be unpinned.
func assertNoPins(t *testing.T, st *storage.Store) {
	t.Helper()
	if pinned := st.PoolStats().Pinned; pinned != 0 {
		t.Fatalf("pin leak: %d pages still pinned after execution", pinned)
	}
}

func TestScanPropagatesStorageErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	doc := xmltree.RandomDocument(rng, 60000, []string{"a", "b"})
	st := faultyStore(t, doc, 3)
	pat := pattern.MustParse("//a")
	ctx := &Context{Doc: doc, Store: st}
	_, err := Drain(ctx, NewIndexScan(pat, 0))
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("scan error = %v, want injected failure", err)
	}
	assertNoPins(t, st)
}

// TestScanErrorsNameAccessPath fails a leaf's reads mid-stream on each
// access path: the error wraps the injected fault and names the path the
// leaf read and its tag.
func TestScanErrorsNameAccessPath(t *testing.T) {
	doc, err := xmltree.Parse(strings.NewReader("<r>" + strings.Repeat("<a>1</a>", 60000) + "</r>"))
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.MustParse(`//a[. = "1"]`)
	for _, tc := range []struct {
		valueIndex bool
		probes     int
		want       string
	}{
		{false, 0, `exec: index scan of "a": `},
		{true, 1, `exec: value-index scan of "a": `},
	} {
		st := faultyStore(t, doc, 3)
		leaf := plan.NewIndexScan(0)
		leaf.ValueIndex = tc.valueIndex
		op, err := Build(pat, leaf)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Doc: doc, Store: st}
		_, err = Drain(ctx, op)
		if !errors.Is(err, faultfs.ErrInjected) || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("ValueIndex=%v: error %v, want %q wrapping the injected failure", tc.valueIndex, err, tc.want)
		}
		if ctx.Stats.ValueProbes != tc.probes {
			t.Fatalf("ValueIndex=%v: %d value probes, want %d", tc.valueIndex, ctx.Stats.ValueProbes, tc.probes)
		}
		assertNoPins(t, st)
	}
}

func TestJoinPropagatesStorageErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	doc := xmltree.RandomDocument(rng, 20000, []string{"a", "b"})
	pat := pattern.MustParse("//a//b")
	for _, algo := range []plan.Algo{plan.AlgoDesc, plan.AlgoAnc} {
		st := faultyStore(t, doc, 11)
		j, err := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1),
			0, 1, pat.Nodes[0].Tag, pattern.Descendant, algo)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &Context{Doc: doc, Store: st}
		if _, err := Drain(ctx, j); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("%v: error = %v, want injected failure", algo, err)
		}
		assertNoPins(t, st)
	}
}

func TestSortPropagatesStorageErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	doc := xmltree.RandomDocument(rng, 20000, []string{"a", "b"})
	st := faultyStore(t, doc, 6)
	pat := pattern.MustParse("//a//b")
	j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1),
		0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
	s, err := NewSort(j, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{Doc: doc, Store: st}
	if _, err := Drain(ctx, s); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("sort error = %v, want injected failure", err)
	}
	assertNoPins(t, st)
}

// TestRunSurvivesZeroFailures double-checks the fault harness itself: with
// no faults configured, execution succeeds.
func TestRunSurvivesZeroFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	doc := xmltree.RandomDocument(rng, 500, []string{"a", "b"})
	st := faultyStore(t, doc, 0)
	pat := pattern.MustParse("//a//b")
	j, _ := NewStackTreeJoin(NewIndexScan(pat, 0), NewIndexScan(pat, 1),
		0, 1, pat.Nodes[0].Tag, pattern.Descendant, plan.AlgoDesc)
	ctx := &Context{Doc: doc, Store: st}
	got, err := Drain(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceMatches(doc, pat)
	if len(got) != len(want) {
		t.Fatalf("fault-harness store returned %d matches, want %d", len(got), len(want))
	}
	assertNoPins(t, st)
}
