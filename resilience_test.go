package sjos

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sjos/internal/faultfs"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// envelope is one corpus shape the envelope tests drive: a planned //a//b
// to run, and the write path when the corpus has one. Every case below runs
// against both shapes and must observe the same behaviour.
type envelope struct {
	c        *Corpus
	pat      *Pattern
	plan     *Plan
	writable bool
}

// run is Run of the planned //a//b.
func (e envelope) run(ctx context.Context) error {
	_, err := e.c.Run(ctx, e.pat, e.plan, QueryOptions{})
	return err
}

// query is QueryContext of //a//b.
func (e envelope) query(ctx context.Context) error {
	_, err := e.c.queryPattern(ctx, e.pat, QueryOptions{})
	return err
}

// forEachFacade runs fn against the two corpus shapes that put the envelope
// around different scatters: the paper's read-only one-document database
// (one shard, run on the calling goroutine) and a writable 2-shard corpus
// (worker goroutines), both built with the given service options.
func forEachFacade(t *testing.T, opts CorpusOptions, fn func(t *testing.T, e envelope)) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	docs := []*xmltree.Document{
		xmltree.RandomDocument(rng, 800, []string{"a", "b"}),
		xmltree.RandomDocument(rng, 800, []string{"a", "b"}),
	}
	pat := MustParsePattern("//a//b")
	t.Run("database", func(t *testing.T) {
		c := docCorpus(t, docs[0], &opts)
		fn(t, envelope{c: c, pat: pat, plan: mustOptimize(t, c, pat, MethodDP).Plan})
	})
	t.Run("corpus", func(t *testing.T) {
		wopts := opts
		wopts.Shards = 2
		wopts.ShardWALFile = func(int) PageFile { return NewMemPageFile() }
		c := buildTestCorpus(t, []string{"d0", "d1"}, docs, &wopts)
		fn(t, envelope{c: c, pat: pat, plan: mustOptimize(t, c, pat, MethodDP).Plan, writable: true})
	})
}

// TestRunRecoversPanics: a panic under Run must surface as a *PanicError —
// counted in metrics, recorded with its stack in the slow-query ring — and
// leave the facade fully usable.
func TestRunRecoversPanics(t *testing.T) {
	forEachFacade(t, CorpusOptions{}, func(t *testing.T, f envelope) {
		f.c.svc.testHookRun = func() { panic("injected facade panic") }
		err := f.run(context.Background())
		f.c.svc.testHookRun = nil
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Run returned %v, want *PanicError", err)
		}
		if len(pe.Stack) == 0 {
			t.Fatal("PanicError carries no stack")
		}
		if m := f.c.Metrics().Query; m.RecoveredPanics != 1 || m.Errors != 1 || m.Queries != 1 || m.InFlight != 0 {
			t.Fatalf("after recovery: panics=%d errors=%d queries=%d inflight=%d, want 1/1/1/0",
				m.RecoveredPanics, m.Errors, m.Queries, m.InFlight)
		}
		var buf bytes.Buffer
		writeMetricsText(&buf, f.c.Metrics())
		if !strings.Contains(buf.String(), "sjos_recovered_panics_total 1") {
			t.Fatalf("exposition does not count the recovered panic:\n%s", buf.String())
		}
		entries := f.c.SlowQueries()
		if len(entries) == 0 {
			t.Fatal("no slow-query entry for the recovered panic")
		}
		last := entries[len(entries)-1]
		if !strings.Contains(last.Error, "injected facade panic") {
			t.Fatalf("ring entry error = %q, want the panic message", last.Error)
		}
		if last.Stack == "" || last.Pattern == "" || last.Fingerprint == "" {
			t.Fatalf("ring entry incomplete: stack=%d bytes, pattern=%q, fp=%q",
				len(last.Stack), last.Pattern, last.Fingerprint)
		}
		// The facade survives: the next query runs normally, and the
		// served/latency counters move with it.
		if err := f.run(context.Background()); err != nil {
			t.Fatalf("query after recovered panic: %v", err)
		}
		if m := f.c.Metrics().Query; m.Queries != 2 || m.Errors != 1 || m.InFlight != 0 || m.TotalTime <= 0 || m.P50 <= 0 {
			t.Fatalf("after the next query: queries=%d errors=%d inflight=%d total=%v p50=%v",
				m.Queries, m.Errors, m.InFlight, m.TotalTime, m.P50)
		}
	})
}

// blockRuns installs a read-envelope hook that parks queries on a channel,
// so tests can hold execution slots open deterministically.
func blockRuns(f envelope) (entered chan struct{}, unblock chan struct{}) {
	entered = make(chan struct{}, 16)
	unblock = make(chan struct{})
	f.c.svc.testHookRun = func() {
		entered <- struct{}{}
		<-unblock
	}
	return entered, unblock
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionOverloadAndQueue: with MaxInFlight 1 and QueueDepth 1, the
// second query waits its turn and the third is shed with ErrOverloaded.
func TestAdmissionOverloadAndQueue(t *testing.T) {
	forEachFacade(t, CorpusOptions{MaxInFlight: 1, QueueDepth: 1}, func(t *testing.T, f envelope) {
		entered, unblock := blockRuns(f)
		first := make(chan error, 1)
		go func() { first <- f.run(context.Background()) }()
		<-entered // first query holds the only slot
		if m := f.c.Metrics().Query; m.InFlight != 1 {
			t.Fatalf("InFlight = %d with one query running, want 1", m.InFlight)
		}
		second := make(chan error, 1)
		go func() { second <- f.run(context.Background()) }()
		waitFor(t, "second query to queue", func() bool { return f.c.Metrics().Admission.Waiting == 1 })
		// Queue full: the third arrival is shed immediately.
		if err := f.run(context.Background()); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("third query error = %v, want ErrOverloaded", err)
		}
		close(unblock)
		if err := <-first; err != nil {
			t.Fatalf("first query: %v", err)
		}
		if err := <-second; err != nil {
			t.Fatalf("queued query: %v", err)
		}
		st := f.c.Metrics().Admission
		if st.Queued < 1 || st.Rejected < 1 {
			t.Fatalf("stats = %+v, want Queued >= 1 and Rejected >= 1", st)
		}
		waitFor(t, "slots to release", func() bool { return f.c.Metrics().Admission.InFlight == 0 })
		// Shed queries never reach the served counters.
		if m := f.c.Metrics().Query; m.Queries != 2 || m.Errors != 0 {
			t.Fatalf("queries=%d errors=%d, want 2/0 (the shed one is not counted)", m.Queries, m.Errors)
		}
	})
}

// TestAdmissionHonorsCancellation: a caller waiting for a slot gives up when
// its context expires.
func TestAdmissionHonorsCancellation(t *testing.T) {
	forEachFacade(t, CorpusOptions{MaxInFlight: 1, QueueDepth: 4}, func(t *testing.T, f envelope) {
		entered, unblock := blockRuns(f)
		defer close(unblock)
		go f.run(context.Background())
		<-entered
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := f.run(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiting query error = %v, want DeadlineExceeded", err)
		}
	})
}

// TestDrainGraceful: Drain stops new admissions — queries and mutations
// alike fail with ErrShuttingDown — waits for in-flight queries, honours its
// context deadline, and is resumable.
func TestDrainGraceful(t *testing.T) {
	forEachFacade(t, CorpusOptions{MaxInFlight: 2}, func(t *testing.T, f envelope) {
		entered, unblock := blockRuns(f)
		running := make(chan error, 1)
		go func() { running <- f.run(context.Background()) }()
		<-entered
		// A query is still in flight: a bounded Drain times out...
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if err := f.c.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("bounded Drain = %v, want DeadlineExceeded", err)
		}
		// ...and new arrivals are already refused, on both envelopes.
		if err := f.run(context.Background()); !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("query during drain = %v, want ErrShuttingDown", err)
		}
		if f.writable {
			if err := f.c.InsertString("new", "<a><b/></a>"); !errors.Is(err, ErrShuttingDown) {
				t.Fatalf("Insert during drain = %v, want ErrShuttingDown", err)
			}
		}
		close(unblock)
		if err := <-running; err != nil {
			t.Fatalf("in-flight query: %v", err)
		}
		// The retried Drain resumes and completes; repeating it is a no-op.
		if err := f.c.Drain(context.Background()); err != nil {
			t.Fatalf("Drain after queries finished: %v", err)
		}
		if err := f.c.Drain(context.Background()); err != nil {
			t.Fatalf("repeated Drain: %v", err)
		}
	})
}

// TestQueryPathRespectsAdmission: the planned-query entry points flow
// through Run, so admission errors surface there too.
func TestQueryPathRespectsAdmission(t *testing.T) {
	forEachFacade(t, CorpusOptions{MaxInFlight: 1}, func(t *testing.T, f envelope) {
		entered, unblock := blockRuns(f)
		go f.query(context.Background())
		<-entered
		if err := f.query(context.Background()); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("query error = %v, want ErrOverloaded", err)
		}
		close(unblock)
		waitFor(t, "slot release", func() bool { return f.c.Metrics().Admission.InFlight == 0 })
	})
}

// TestWriteMetricsResilienceCounters: the Prometheus exposition carries the
// new integrity/admission/chaos counters, end to end — a transient injected
// fault is healed by a retry and shows up in every relevant series.
func TestWriteMetricsResilienceCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	doc := xmltree.RandomDocument(rng, 800, []string{"a", "b"})
	ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
	db := docCorpus(t, doc, &CorpusOptions{PoolFrames: 4, MaxInFlight: 4, ShardPageFile: storeOn(ff)})
	ff.SetPolicy(faultfs.Policy{FailNthRead: 1, Transient: true})
	pat := MustParsePattern("//a//b")
	if _, err := db.queryPattern(context.Background(), pat, QueryOptions{}); err != nil {
		t.Fatalf("query over transient fault: %v", err)
	}
	m := db.Metrics()
	if m.FaultsInjected == 0 {
		t.Fatal("FaultsInjected = 0, want > 0")
	}
	if m.Pool.Retries == 0 {
		t.Fatal("Pool.Retries = 0, want > 0 (retry healed the injected fault)")
	}
	var buf bytes.Buffer
	db.WriteMetrics(&buf)
	text := buf.String()
	for _, series := range []string{
		"sjos_recovered_panics_total",
		"sjos_page_retries_total",
		"sjos_checksum_failures_total",
		"sjos_admission_queued_total",
		"sjos_admission_rejected_total",
		"sjos_faults_injected_total",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("metrics exposition missing %s:\n%s", series, text)
		}
	}
	if !strings.Contains(text, "sjos_page_retries_total 1") {
		t.Fatalf("page retries not reported:\n%s", text)
	}
}

// TestExplainAnalyzeEnvelope: EXPLAIN ANALYZE executes through Run, so it
// passes the read envelope like any query — it is counted, it is refused
// once Drain has begun, and a panic under it comes back as a *PanicError.
func TestExplainAnalyzeEnvelope(t *testing.T) {
	db := xmlCorpus(t, facadeXML, &CorpusOptions{MaxInFlight: 2})
	pat := MustParsePattern("//manager//employee/name")
	if _, err := db.ExplainAnalyze(pat, MethodDPP); err != nil {
		t.Fatal(err)
	}
	if q := db.Metrics().Query.Queries; q != 1 {
		t.Fatalf("ExplainAnalyze counted as %d queries, want 1", q)
	}
	db.svc.testHookRun = func() { panic("injected explain panic") }
	_, err := db.ExplainAnalyze(pat, MethodDPP)
	db.svc.testHookRun = nil
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ExplainAnalyze under a panic = %v, want *PanicError", err)
	}
	if err := db.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExplainAnalyze(pat, MethodDPP); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("ExplainAnalyze after Drain = %v, want ErrShuttingDown", err)
	}
}
