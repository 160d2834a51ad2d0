package sjos

// Replica-set suite: with R store copies per shard, a corpus must survive a
// permanently dead replica of every shard with exact results (failover, not
// error), serve through a slow replica without counting it a failure, walk
// dead replicas through the suspect/probation state machine and back on
// recovery, and keep the corpus limit/error race of the scatter sound under
// -race.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sjos/internal/faultfs"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// buildReplicaCorpus builds a corpus with every replica's page file wrapped
// in fault injection (zero policy: faults armed later, so construction-time
// reads succeed). files[shard][replica] is the wrapper.
func buildReplicaCorpus(t *testing.T, ids []string, docs []*xmltree.Document, opts CorpusOptions) (*Corpus, map[int]map[int]*faultfs.File) {
	t.Helper()
	files := make(map[int]map[int]*faultfs.File)
	var mu sync.Mutex
	opts.ShardPageFile = func(shard, replica int) PageFile {
		f := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
		mu.Lock()
		if files[shard] == nil {
			files[shard] = make(map[int]*faultfs.File)
		}
		files[shard][replica] = f
		mu.Unlock()
		return f
	}
	return buildTestCorpus(t, ids, docs, &opts), files
}

// TestCorpusReplicaChaos kills one replica of EVERY shard permanently and
// requires every method × scatter mode × execution mode to return the exact
// fault-free result: with R=2 a dead store copy is a failover, not an error.
func TestCorpusReplicaChaos(t *testing.T) {
	ids, docs := corpusFixtureDocsScale(t, 4, 0.5)
	c, files := buildReplicaCorpus(t, ids, docs, CorpusOptions{
		Shards:           2,
		ReplicasPerShard: 2,
		PoolFrames:       8,
	})
	for s, reps := range files {
		if len(reps) != 2 {
			t.Fatalf("shard %d built %d replicas, want 2", s, len(reps))
		}
		// Alternate which replica dies so the metadata replica (0) is dead
		// on some shards: planning must not depend on a live replica 0.
		reps[s%2].SetPolicy(faultfs.Policy{FailNthRead: 1})
	}

	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)
	if len(want) == 0 {
		t.Fatal("fixture ground truth is empty")
	}
	methods := []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP}
	for _, m := range methods {
		opt, err := c.OptimizeContext(context.Background(), pat, m, 0)
		if err != nil {
			t.Fatalf("%v: optimize: %v", m, err)
		}
		res, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{})
		if err != nil {
			t.Fatalf("%v: dead replica leaked as error: %v", m, err)
		}
		if !sameCorpusMatches(res.Matches, want) {
			t.Fatalf("%v: result differs from fault-free answer", m)
		}
	}

	met := c.Metrics()
	if met.Replica.Failovers == 0 {
		t.Fatal("no failovers recorded despite a dead replica per shard")
	}
	if met.Replica.Suspect == 0 {
		t.Fatal("no replica degraded despite permanent failures")
	}
	deadDegraded := 0
	for _, h := range c.Health() {
		if len(h.Replicas) != 2 {
			t.Fatalf("shard %d health reports %d replicas, want 2", h.Shard, len(h.Replicas))
		}
		dead := h.Shard % 2
		if h.Replicas[dead].State != "healthy" {
			deadDegraded++
		}
		if live := h.Replicas[1-dead]; live.State != "healthy" || live.Successes == 0 {
			t.Fatalf("shard %d live replica: %+v, want healthy with successes", h.Shard, live)
		}
		if h.FaultsInjected == 0 {
			t.Fatalf("shard %d reports no injected faults", h.Shard)
		}
	}
	if deadDegraded == 0 {
		t.Fatal("no dead replica left the healthy state")
	}
	var sb strings.Builder
	c.WriteMetrics(&sb)
	for _, series := range []string{"sjos_replica_failovers_total", "sjos_replicas_suspect"} {
		if !strings.Contains(sb.String(), series) {
			t.Fatalf("metrics exposition missing %s", series)
		}
	}
}

// TestCorpusReplicaSlowFirst puts a replica at 25 ms a page read in
// rotation: the queries it goes first for must return the exact result from
// it, and it must stay healthy with no failover counted — slowness is not
// failure.
func TestCorpusReplicaSlowFirst(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 2)
	c, files := buildReplicaCorpus(t, ids, docs, CorpusOptions{
		Shards:           1,
		ReplicasPerShard: 2,
	})
	files[0][0].SetPolicy(faultfs.Policy{Latency: 25 * time.Millisecond})

	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)
	opt := mustOptimize(t, c, pat, MethodDPP)
	// Rotation alternates which healthy replica goes first, so the slow one
	// leads half of these queries.
	for i := 0; i < 4; i++ {
		res, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !sameCorpusMatches(res.Matches, want) {
			t.Fatalf("query %d: result differs from fault-free answer", i)
		}
	}
	if files[0][0].Reads() == 0 {
		t.Fatal("no page read reached the slow replica")
	}
	for _, r := range c.Health()[0].Replicas {
		if r.State != "healthy" || r.Successes != 2 || r.Failures != 0 {
			t.Fatalf("replica %d: %+v, want healthy with 2 successes and no failure", r.Replica, r)
		}
	}
	if met := c.Metrics(); met.Replica.Failovers != 0 {
		t.Fatalf("%d failovers for a slow but working replica", met.Replica.Failovers)
	}
}

// TestCorpusReplicaProbeRecovery walks a dead replica down to probation and
// back: half-open probes keep testing it (at most one per interval), and the
// first probe after it heals snaps it back to healthy routing.
func TestCorpusReplicaProbeRecovery(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 2)
	c, files := buildReplicaCorpus(t, ids, docs, CorpusOptions{
		Shards:               1,
		ReplicasPerShard:     2,
		ReplicaProbeInterval: time.Millisecond,
	})
	files[0][1].SetPolicy(faultfs.Policy{FailNthRead: 1})

	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)
	opt := mustOptimize(t, c, pat, MethodDPP)
	run := func() {
		t.Helper()
		res, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameCorpusMatches(res.Matches, want) {
			t.Fatal("result differs from fault-free answer")
		}
	}
	state := func() string { return c.Health()[0].Replicas[1].State }

	deadline := time.Now().Add(5 * time.Second)
	for state() != "probation" {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck in %q, never reached probation", state())
		}
		run()
		time.Sleep(2 * time.Millisecond) // let the next half-open probe come due
	}

	// Heal the store; the next granted probe routes a real query through the
	// replica, succeeds, and restores it to healthy.
	files[0][1].SetPolicy(faultfs.Policy{})
	for state() != "healthy" {
		if time.Now().After(deadline) {
			t.Fatalf("healed replica stuck in %q", state())
		}
		run()
		time.Sleep(2 * time.Millisecond)
	}
	if h := c.Health()[0].Replicas[1]; h.Successes == 0 {
		t.Fatalf("recovered replica has no recorded successes: %+v", h)
	}
}

// TestCorpusLimitErrorRace exercises interleavings of the scatter's
// limit-satisfied cancellation with a genuinely failing shard (single
// replica, so failover cannot mask it): a real error may be pre-empted by a
// satisfied limit, but the result is then the exact prefix — never a partial
// or wrong answer, and never a swallowed error with a bad result.
func TestCorpusLimitErrorRace(t *testing.T) {
	ids, docs := corpusFixtureDocsScale(t, 4, 0.5)
	c, files := buildReplicaCorpus(t, ids, docs, CorpusOptions{
		Shards:     2,
		PoolFrames: 8,
	})
	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)
	if len(want) == 0 || want[0].Doc != 0 {
		t.Fatal("fixture's first document has no matches — prefix test needs one")
	}
	opt := mustOptimize(t, c, pat, MethodDPP)
	firstShard, ok := c.ShardOf(ids[0])
	if !ok {
		t.Fatal("first document not placed")
	}
	otherShard := -1
	for s := range files {
		if s != firstShard {
			otherShard = s
		}
	}
	if otherShard < 0 {
		t.Fatal("fixture hashed every document to one shard")
	}

	run := func(c *Corpus, p *Plan) (*CorpusRunResult, error) {
		res, err := c.Run(context.Background(), pat, p, QueryOptions{ExecOptions: ExecOptions{Limit: 1}})
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Fatalf("panic escaped as error: %v\n%s", pe, pe.Stack)
		}
		return res, err
	}

	// Faults disarmed, an unlimited run sizes the fault sweep: how many
	// physical reads the racing shard performs on a cold pool. A limited run
	// cannot size it, since the satisfied limit may cancel the racing shard
	// before it reads a page.
	for _, f := range files[otherShard] {
		f.SetPolicy(faultfs.Policy{})
	}
	if _, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{CountOnly: true}); err != nil {
		t.Fatalf("unlimited baseline: %v", err)
	}
	reads := int(files[otherShard][0].Reads())
	if reads == 0 {
		t.Fatal("unlimited run performed no physical reads on the racing shard — fixture too small for the pool")
	}
	// Baseline under the limit: establishes the exact prefix.
	base, err := run(c, opt.Plan)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if !sameCorpusMatches(base.Matches, want[:1]) {
		t.Fatal("baseline limit prefix differs")
	}

	// Case A: the failing shard owns no document of the limit prefix. The
	// limit cancellation and the shard's failure race; whichever wins, the
	// outcome must be the exact prefix or the injected error — at every
	// fault point, repeatedly, under -race. Each fault point gets a fresh
	// corpus: on a warm pool the racing shard reads no page, and no fault
	// would ever fire.
	var injected uint64
	for _, p := range faultPoints(reads) {
		ca, filesA := buildReplicaCorpus(t, ids, docs, CorpusOptions{
			Shards:     2,
			PoolFrames: 8,
		})
		optA := mustOptimize(t, ca, pat, MethodDPP)
		racing := filesA[otherShard][0]
		racing.SetPolicy(faultfs.Policy{FailNthRead: p})
		for i := 0; i < 3; i++ {
			res, err := run(ca, optA.Plan)
			if err != nil {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("failNth=%d: error = %v, want injected", p, err)
				}
				if res != nil {
					t.Fatalf("failNth=%d: partial result alongside error", p)
				}
				continue
			}
			if !sameCorpusMatches(res.Matches, want[:1]) {
				t.Fatalf("failNth=%d: swallowed fault produced a wrong prefix", p)
			}
		}
		injected += racing.FaultsInjected()
	}
	// One scatter worker runs the shards in order; the racing shard then
	// reads nothing whenever the prefix shard runs first and satisfies the
	// limit.
	if injected == 0 && (runtime.GOMAXPROCS(0) > 1 || otherShard < firstShard) {
		t.Fatal("Case A injected no fault: the racing shard never read a page")
	}
	t.Logf("Case A: %d faults injected", injected)

	// Case B: the failing shard owns the prefix's first document, so the
	// limit can never be satisfied without it — the injected error must
	// surface. A fresh corpus keeps the shard's buffer pool cold, so the
	// very first read hits the dead store.
	c2, files2 := buildReplicaCorpus(t, ids, docs, CorpusOptions{
		Shards:     2,
		PoolFrames: 8,
	})
	opt2 := mustOptimize(t, c2, pat, MethodDPP)
	files2[firstShard][0].SetPolicy(faultfs.Policy{FailNthRead: 1})
	res, err := c2.Run(context.Background(), pat, opt2.Plan, QueryOptions{ExecOptions: ExecOptions{Limit: 1}})
	if err == nil {
		t.Fatal("prefix shard's injected error was swallowed by the limit")
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("prefix shard: error = %v, want injected", err)
	}
	if res != nil {
		t.Fatal("prefix shard: partial result alongside error")
	}
}

// TestCorpusReplicaRebuildStatsRace storms RebuildStats from several
// goroutines while queries (and, on the writable corpus, mutations) run:
// every interleaving must stay race- and panic-free and never install nil
// or partial statistics — each query in the storm still plans and matches.
func TestCorpusReplicaRebuildStatsRace(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 3)
	for name, opts := range map[string]*CorpusOptions{
		"static":   {Shards: 2, ReplicasPerShard: 2},
		"writable": {Shards: 2, ReplicasPerShard: 2, ShardWALFile: func(int) PageFile { return NewMemPageFile() }},
	} {
		t.Run(name, func(t *testing.T) {
			c := buildTestCorpus(t, ids, docs, opts)
			query := func() {
				res, err := c.QueryContext(context.Background(), `//article//author`, methodOpts(MethodDPP))
				if err != nil || res.Count == 0 {
					t.Errorf("query in rebuild storm: res=%v err=%v", res, err)
				}
			}
			c.RebuildStats()
			c.RebuildStats()
			query()
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < 25; j++ {
						switch {
						case i%2 == 0:
							c.RebuildStats()
						case c.IngestEnabled() && j%5 == 0:
							if err := c.ReplaceString(ids[0], `<dblp><article><author>x</author></article></dblp>`); err != nil {
								t.Errorf("replace in rebuild storm: %v", err)
							}
						default:
							query()
						}
					}
				}(i)
			}
			wg.Wait()
			c.RebuildStats()
			query()
		})
	}
}

// TestCorpusReplicaDiskPaths checks that every replica of a disk-backed
// shard gets its own image file: ShardPageFile is asked once per (shard,
// replica), and the corpus laid down on those files answers like
// one-document corpora.
func TestCorpusReplicaDiskPaths(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 2)
	dir := t.TempDir()
	calls := map[[2]int]int{}
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{
		Shards:           1,
		ReplicasPerShard: 2,
		ShardPageFile: func(s, r int) PageFile {
			calls[[2]int{s, r}]++
			f, err := CreatePageFile(fmt.Sprintf("%s/corpus.img.shard-%03d.r%d", dir, s, r))
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	})
	if want := map[[2]int]int{{0, 0}: 1, {0, 1}: 1}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("ShardPageFile calls = %v, want %v", calls, want)
	}
	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)
	res, err := c.QueryContext(context.Background(), `//article//author`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCorpusMatches(corpusMatches(res.Segments, res.Count), want) {
		t.Fatal("disk-backed replica corpus result differs")
	}
	for r := 0; r < 2; r++ {
		p := fmt.Sprintf("%s/corpus.img.shard-000.r%d", dir, r)
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("replica image %s missing or empty: %v", p, err)
		}
	}
}
