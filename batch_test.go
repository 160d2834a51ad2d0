package sjos

import (
	"context"
	"math/rand"
	"testing"
)

// TestBatchedTupleDifferential is the acceptance differential for the
// executor: for every optimizer's chosen plan, execution must produce exactly
// the brute-force reference's multiset of match tuples, and count it without
// materialising, on random documents and patterns.
func TestBatchedTupleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	tags := []string{"a", "b", "c", "d"}
	methods := []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
	for trial := 0; trial < 8; trial++ {
		doc := randomXML(rng, 40+rng.Intn(300), tags)
		db := xmlCorpus(t, doc, nil)
		for q := 0; q < 4; q++ {
			pat := randomTwig(rng, tags, 2+rng.Intn(4))
			want := canonicalize(referenceMatches(db, pat))
			for _, m := range methods {
				res, err := db.OptimizeContext(context.Background(), pat, m, 0)
				if err != nil {
					t.Fatalf("trial %d %v on %s: %v", trial, m, pat, err)
				}
				r, err := db.Run(nil, pat, res.Plan, QueryOptions{})
				if err != nil {
					t.Fatalf("trial %d %v on %s: %v", trial, m, pat, err)
				}
				if got := canonicalize(rowsOf(r.Segments)); !equalStrings(got, want) {
					t.Fatalf("trial %d: %v disagrees with the reference on %s: %d vs %d matches",
						trial, m, pat, len(got), len(want))
				}
				// CountOnly must agree without materialising.
				rc, err := db.Run(nil, pat, res.Plan, QueryOptions{CountOnly: true})
				if err != nil {
					t.Fatalf("trial %d %v count on %s: %v", trial, m, pat, err)
				}
				if rc.Count != len(want) {
					t.Fatalf("trial %d: %v CountOnly = %d, want %d",
						trial, m, rc.Count, len(want))
				}
			}
		}
	}
}

// TestBatchedLimitAndStats checks the Limit run mode and that an execution
// reports its root batches through CorpusRunResult.Stats.
func TestBatchedLimitAndStats(t *testing.T) {
	db := datasetCorpus(t, "pers", 1, 1, nil)
	pat := MustParsePattern("//manager//employee/name")
	res := mustOptimize(t, db, pat, MethodDPP)
	full, err := db.Run(nil, pat, res.Plan, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Batches == 0 {
		t.Error("run reported zero root batches")
	}
	if full.Count < 3 {
		t.Fatalf("fixture too small: %d matches", full.Count)
	}
	for _, lim := range []int{1, 2, full.Count + 10} {
		r, err := db.Run(nil, pat, res.Plan, QueryOptions{ExecOptions: ExecOptions{Limit: lim}})
		if err != nil {
			t.Fatal(err)
		}
		want := lim
		if want > full.Count {
			want = full.Count
		}
		if r.Count != want {
			t.Fatalf("limit %d: got %d matches, want %d", lim, r.Count, want)
		}
	}
}

// TestBatchedTraceReportsBatches checks traced execution populates the
// per-operator batch counters in the trace, and counts what the brute-force
// reference counts.
func TestBatchedTraceReportsBatches(t *testing.T) {
	db := datasetCorpus(t, "pers", 1, 1, nil)
	pat := MustParsePattern("//manager//employee/name")
	res := mustOptimize(t, db, pat, MethodDPP)
	r, err := db.Run(nil, pat, res.Plan, QueryOptions{ExecOptions: ExecOptions{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("Trace requested but not returned")
	}
	var walk func(*OpTrace) (int64, int64)
	walk = func(tr *OpTrace) (batches, rows int64) {
		batches, rows = tr.Batches, tr.Rows
		for _, c := range tr.Children {
			b, rw := walk(c)
			batches += b
			rows += rw
		}
		return
	}
	batches, rows := walk(r.Trace)
	if batches == 0 {
		t.Error("traced run recorded no batches in the operator trace")
	}
	if rows == 0 {
		t.Error("traced run recorded no rows")
	}
	if want := len(referenceMatches(db, pat)); r.Count != want || r.Trace.Rows != int64(want) {
		t.Fatalf("traced run: %d matches, %d root rows in the trace, reference %d", r.Count, r.Trace.Rows, want)
	}
}

// TestMetricsCountBatches checks executions fold their batch and skip
// counters into the process metrics registry.
func TestMetricsCountBatches(t *testing.T) {
	db := datasetCorpus(t, "pers", 1, 1, nil)
	if _, err := db.QueryContext(context.Background(), "//manager//employee/name", methodOpts(MethodDPP)); err != nil {
		t.Fatal(err)
	}
	if got := db.Metrics().Query.Batches; got == 0 {
		t.Error("metrics snapshot reports zero exec batches after a query")
	}
}
