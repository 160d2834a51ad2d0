package sjos

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sjos/internal/faultfs"
	"sjos/internal/storage"
)

// walMap is a stable shard→WAL-file mapping, so a corpus can be rebuilt
// from the same logs (crash recovery).
type walMap struct {
	mu    sync.Mutex
	files map[int]PageFile
}

func newWALMap() *walMap { return &walMap{files: make(map[int]PageFile)} }

func (m *walMap) file(shard int) PageFile {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[shard]
	if !ok {
		f = storage.NewMemFile()
		m.files[shard] = f
	}
	return f
}

// oneShardCorpus builds a one-shard corpus logging to wal — or, when wal
// already holds committed transactions, recovers it: the single writable
// store.
func oneShardCorpus(wal PageFile, compactThr float64) (*Corpus, error) {
	return NewCorpusBuilder(&CorpusOptions{
		Shards:           1,
		ShardWALFile:     func(int) PageFile { return wal },
		CompactThreshold: compactThr,
	}).Build()
}

// orderXML builds a little order document with n items; each item
// contributes exactly one match to //order//item/name and one to
// //item[qty >= 5]/name when its qty crosses the bound.
func orderXML(n int) string {
	s := "<order>"
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("<item><name>w%d</name><qty>%d</qty></item>", i, i)
	}
	return s + "</order>"
}

func countCorpus(t testing.TB, c *Corpus, q string) int {
	t.Helper()
	res, err := c.QueryContext(context.Background(), q, methodOpts(MethodDPP))
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	return res.Count
}

// Each write-path behaviour below runs on a sharded corpus (TestCorpusIngest*)
// and on a one-shard corpus, the single writable store (TestIngest*).

func TestCorpusIngestInsertDeleteReplace(t *testing.T) { testIngestInsertDeleteReplace(t, 3) }
func TestIngestInsertDeleteReplace(t *testing.T)       { testIngestInsertDeleteReplace(t, 1) }

func testIngestInsertDeleteReplace(t *testing.T, shards int) {
	wals := newWALMap()
	c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: wals.file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !c.IngestEnabled() {
		t.Fatal("ingest not enabled")
	}
	if got := countCorpus(t, c, "//order//item/name"); got != 0 {
		t.Fatalf("empty corpus matched %d", got)
	}

	total := 0
	for i := 0; i < 9; i++ {
		n := 2 + i%3
		if err := c.InsertString(fmt.Sprintf("doc%d", i), orderXML(n)); err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if got := countCorpus(t, c, "//order//item/name"); got != total {
		t.Fatalf("after inserts: %d matches, want %d", got, total)
	}
	if c.NumDocs() != 9 {
		t.Fatalf("NumDocs = %d, want 9", c.NumDocs())
	}

	// Document attribution and local numbering survive the scatter.
	res, err := c.QueryContext(context.Background(), "//order//item/name", methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	perDoc := map[string]int{}
	for _, m := range corpusMatches(res.Segments, res.Count) {
		perDoc[m.DocID]++
		if tag, ok := c.TagName(m.DocID, m.Nodes[len(m.Nodes)-1]); !ok || tag != "name" {
			t.Fatalf("TagName(%s, %d) = %q, %v", m.DocID, m.Nodes[len(m.Nodes)-1], tag, ok)
		}
	}
	for i := 0; i < 9; i++ {
		id := fmt.Sprintf("doc%d", i)
		if perDoc[id] != 2+i%3 {
			t.Fatalf("%s: %d matches, want %d", id, perDoc[id], 2+i%3)
		}
	}

	if err := c.Delete("doc4"); err != nil {
		t.Fatal(err)
	}
	total -= 2 + 4%3
	if got := countCorpus(t, c, "//order//item/name"); got != total {
		t.Fatalf("after delete: %d matches, want %d", got, total)
	}
	if _, ok := c.ShardOf("doc4"); ok {
		t.Fatal("deleted document still routed")
	}

	// Value predicates keep working across mutations (a value index per
	// segment): every document so far has qty 0..3, so none reach 5 until
	// doc0's replacement brings qty 5 and 6.
	if got := countCorpus(t, c, "//item[qty >= 5]/name"); got != 0 {
		t.Fatalf("qty >= 5: %d matches, want 0", got)
	}
	if err := c.ReplaceString("doc0", orderXML(7)); err != nil {
		t.Fatal(err)
	}
	total += 7 - 2
	if got := countCorpus(t, c, "//order//item/name"); got != total {
		t.Fatalf("after replace: %d matches, want %d", got, total)
	}
	if got := countCorpus(t, c, "//item[qty >= 5]/name"); got != 2 {
		t.Fatalf("qty >= 5 after replace: %d matches, want 2", got)
	}

	// Error paths leave the corpus usable and unchanged.
	if err := c.InsertString("doc0", orderXML(1)); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if err := c.Delete("ghost"); err == nil {
		t.Fatal("deleting unknown doc succeeded")
	}
	if err := c.ReplaceString("ghost", orderXML(1)); err == nil {
		t.Fatal("replacing unknown doc succeeded")
	}
	if err := c.InsertString("", orderXML(1)); err == nil {
		t.Fatal("empty ID insert succeeded")
	}
	if got := countCorpus(t, c, "//order//item/name"); got != total || c.NumDocs() != 8 {
		t.Fatalf("after error paths: %d matches in %d documents, want %d in 8", got, c.NumDocs(), total)
	}

	// Limit works against the mutable directory.
	lres, err := c.Run(nil, mustPattern(t, "//order//item/name"), mustOptimize(t, c, mustPattern(t, "//order//item/name"), MethodDPP).Plan, QueryOptions{ExecOptions: ExecOptions{Limit: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Count != 3 {
		t.Fatalf("limit run: %d matches, want 3", lres.Count)
	}
}

// TestCorpusIngestReplaceOrder: a replaced document moves to the end of the
// directory, where its shard lays the new version down, so after a replace a
// limited run's rows are still a prefix of the unlimited run's — on one shard
// and on three, with both documents on the same shard — and a recovered
// one-shard corpus lists the documents, and their rows, in the same order.
func TestCorpusIngestReplaceOrder(t *testing.T) {
	const q = "//order//item/name"
	for _, shards := range []int{1, 3} {
		wals := newWALMap()
		build := func() *Corpus {
			c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: wals.file}).Build()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := build()
		other := ""
		for _, id := range strings.Split("cbdefghijklmnopqrstuvwxyz", "") {
			if c.ring.Shard(id) == c.ring.Shard("a") {
				other = id
				break
			}
		}
		if other == "" {
			t.Fatalf("%d shards: no fixture ID shares a shard with a", shards)
		}
		for _, step := range []func() error{
			func() error { return c.InsertString("a", orderXML(4)) },
			func() error { return c.InsertString(other, orderXML(3)) },
			func() error { return c.ReplaceString("a", orderXML(5)) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if got := c.DocIDs(); !reflect.DeepEqual(got, []string{other, "a"}) {
			t.Fatalf("%d shards: directory %v, want [%s a]", shards, got, other)
		}
		pat, p := mustPattern(t, q), mustOptimize(t, c, mustPattern(t, q), MethodDPP).Plan
		full, err := c.Run(nil, pat, p, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lim, err := c.Run(nil, pat, p, QueryOptions{ExecOptions: ExecOptions{Limit: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if full.Count != 8 || !sameCorpusMatches(lim.Matches, full.Matches[:3]) {
			t.Fatalf("%d shards: limit-3 rows are not a prefix of the %d unlimited rows", shards, full.Count)
		}
		if shards > 1 {
			continue
		}
		rec := build()
		if got := rec.DocIDs(); !reflect.DeepEqual(got, c.DocIDs()) {
			t.Fatalf("recovered directory %v, live %v", got, c.DocIDs())
		}
		rres, err := rec.Run(nil, pat, p, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameCorpusMatches(rres.Matches, full.Matches) {
			t.Fatal("recovered corpus lists its rows in another order than the live one")
		}
	}
}

func mustPattern(t testing.TB, src string) *Pattern {
	t.Helper()
	pat, err := ParsePattern(src)
	if err != nil {
		t.Fatal(err)
	}
	return pat
}

func TestCorpusIngestRecovery(t *testing.T) { testIngestRecovery(t, 3) }
func TestIngestRecovery(t *testing.T)       { testIngestRecovery(t, 1) }

func testIngestRecovery(t *testing.T, shards int) {
	wals := newWALMap()
	build := func() *Corpus {
		c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: wals.file}).Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := build()
	for i := 0; i < 6; i++ {
		if err := c.InsertString(fmt.Sprintf("doc%d", i), orderXML(3+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("doc2"); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceString("doc5", orderXML(2)); err != nil {
		t.Fatal(err)
	}
	want := countCorpus(t, c, "//order//item/name")
	// A value predicate, which each segment's value index can serve: doc3's
	// qty 5 and doc4's qty 5 and 6.
	wantProbe := countCorpus(t, c, "//item[qty >= 5]/name")
	if wantProbe != 3 {
		t.Fatalf("qty >= 5: %d matches, want 3", wantProbe)
	}

	// "Crash": drop every in-memory structure and rebuild from the WALs
	// alone. The ring is a pure function of (Shards, Replicas), so the
	// same options route every ID to the same log. Replay is idempotent:
	// recover twice, and both must agree with the original.
	var rec *Corpus
	for round := 0; round < 2; round++ {
		rec = build()
		if got := countCorpus(t, rec, "//order//item/name"); got != want {
			t.Fatalf("round %d: recovered corpus: %d matches, want %d", round, got, want)
		}
		if got := countCorpus(t, rec, "//item[qty >= 5]/name"); got != wantProbe {
			t.Fatalf("round %d: value-probe count %d, want %d", round, got, wantProbe)
		}
		if rec.IngestStats().Docs != 5 {
			t.Fatalf("round %d: recovered docs = %d, want 5", round, rec.IngestStats().Docs)
		}
		for _, id := range []string{"doc0", "doc1", "doc3", "doc4", "doc5"} {
			if _, ok := rec.ShardOf(id); !ok {
				t.Fatalf("round %d: recovered corpus lost %s", round, id)
			}
		}
		if _, ok := rec.ShardOf("doc2"); ok {
			t.Fatalf("round %d: recovered corpus resurrected doc2", round)
		}
	}
	// And the recovered corpus keeps accepting writes.
	if err := rec.InsertString("post", orderXML(4)); err != nil {
		t.Fatal(err)
	}
	if got := countCorpus(t, rec, "//order//item/name"); got != want+4 {
		t.Fatalf("post-recovery insert: %d matches, want %d", got, want+4)
	}
}

// TestCorpusIngestConcurrentRecovery: shards recover side by side, and the
// corpus that comes out — document order, per-shard state, what each shard
// replayed — is the one a build on a single processor produces from the same
// logs. A shard that cannot recover fails the build; no corpus is returned.
func TestCorpusIngestConcurrentRecovery(t *testing.T) {
	const shards = 4
	wals := newWALMap()
	opts := func() *CorpusOptions { return &CorpusOptions{Shards: shards, ShardWALFile: wals.file} }
	c, err := NewCorpusBuilder(opts()).Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := c.InsertString(fmt.Sprintf("doc%02d", i), orderXML(1+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i += 5 {
		if err := c.ReplaceString(fmt.Sprintf("doc%02d", i), orderXML(7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete("doc03"); err != nil {
		t.Fatal(err)
	}

	recoverAt := func(procs int) (*Corpus, CorpusIngestStats) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		rec, err := NewCorpusBuilder(opts()).Build()
		if err != nil {
			t.Fatalf("recovery on %d processors: %v", procs, err)
		}
		st := rec.IngestStats()
		if st.RecoveredTxns == 0 || st.RecoverySeconds <= 0 {
			t.Fatalf("recovery on %d processors reports %d transactions in %v s", procs, st.RecoveredTxns, st.RecoverySeconds)
		}
		st.RecoverySeconds = 0 // the one field that is a clock's
		return rec, st
	}
	serial, serialStats := recoverAt(1)
	for round := 0; round < 3; round++ {
		rec, st := recoverAt(shards)
		if got, want := rec.DocIDs(), serial.DocIDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: concurrent recovery orders documents %v, serial %v", round, got, want)
		}
		if st != serialStats {
			t.Fatalf("round %d: concurrent recovery stats %+v, serial %+v", round, st, serialStats)
		}
		if got, want := countCorpus(t, rec, "//order//item/name"), countCorpus(t, c, "//order//item/name"); got != want {
			t.Fatalf("round %d: %d matches, want %d", round, got, want)
		}
	}
	if got, want := len(serial.DocIDs()), c.NumDocs(); got != want {
		t.Fatalf("recovered %d documents, want %d", got, want)
	}

	// One shard's log cannot be read: the build fails as a whole.
	bad := opts()
	bad.ShardWALFile = func(s int) PageFile {
		if s == 2 {
			return faultfs.Wrap(wals.file(s), faultfs.Policy{FailNthRead: 1})
		}
		return wals.file(s)
	}
	if rec, err := NewCorpusBuilder(bad).Build(); rec != nil || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("build over an unreadable shard log returned %v, %v", rec, err)
	}
	// The same fault as a blip is retried away under the shards' retry policy.
	bad.ShardWALFile = func(s int) PageFile {
		return faultfs.Wrap(wals.file(s), faultfs.Policy{FailNthRead: 1 + s, Transient: true})
	}
	rec, err := NewCorpusBuilder(bad).Build()
	if err != nil {
		t.Fatalf("build over logs with one transient read failure each: %v", err)
	}
	if got, want := rec.DocIDs(), serial.DocIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the retries: documents %v, want %v", got, want)
	}
}

func TestCorpusIngestSeededBuild(t *testing.T) {
	wals := newWALMap()
	b := NewCorpusBuilder(&CorpusOptions{Shards: 2, ShardWALFile: wals.file})
	for i := 0; i < 4; i++ {
		if err := b.AddXMLString(fmt.Sprintf("seed%d", i), orderXML(3)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := countCorpus(t, c, "//order//item/name"); got != 12 {
		t.Fatalf("%d matches, want 12", got)
	}
	if err := c.InsertString("extra", orderXML(2)); err != nil {
		t.Fatal(err)
	}
	if got := countCorpus(t, c, "//order//item/name"); got != 14 {
		t.Fatalf("%d matches, want 14", got)
	}
	// The seeds were logged as each shard's base snapshot: a rebuild from
	// the WALs alone recovers seeds and later inserts alike.
	rec, err := NewCorpusBuilder(&CorpusOptions{Shards: 2, ShardWALFile: wals.file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := countCorpus(t, rec, "//order//item/name"); got != 14 {
		t.Fatalf("recovered: %d matches, want 14", got)
	}
}

func TestCorpusIngestFollowerReplicas(t *testing.T) {
	wals := newWALMap()
	var mu sync.Mutex
	followers := make(map[int]*faultfs.File)
	c, err := NewCorpusBuilder(&CorpusOptions{
		Shards:           2,
		ReplicasPerShard: 2,
		ShardWALFile:     wals.file,
		ShardPageFile: func(shard, replica int) PageFile {
			if replica == 0 {
				return storage.NewMemFile()
			}
			ff := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
			mu.Lock()
			followers[shard] = ff
			mu.Unlock()
			return ff
		},
	}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := c.InsertString(fmt.Sprintf("doc%d", i), orderXML(3)); err != nil {
			t.Fatal(err)
		}
	}
	if got := countCorpus(t, c, "//order//item/name"); got != 18 {
		t.Fatalf("%d matches, want 18", got)
	}
	if ds := c.IngestStats().DownReplicas; ds != 0 {
		t.Fatalf("%d replicas down before any fault", ds)
	}

	// Kill shard 0's follower store: the next mutation landing on shard 0
	// fails to apply there, and the follower must leave routing while the
	// corpus stays fully available.
	followers[0].SetPolicy(faultfs.Policy{CrashAfterNWrites: 1})
	downed := 0
	for i := 6; i < 12; i++ {
		if err := c.InsertString(fmt.Sprintf("doc%d", i), orderXML(3)); err != nil {
			t.Fatalf("insert with dead follower: %v", err)
		}
	}
	for _, sh := range c.Health() {
		for _, rep := range sh.Replicas {
			if rep.Down {
				downed++
			}
		}
	}
	if downed != 1 {
		t.Fatalf("%d replicas down, want 1", downed)
	}
	if got := c.IngestStats().DownReplicas; got != 1 {
		t.Fatalf("IngestStats.DownReplicas = %d, want 1", got)
	}
	if got := countCorpus(t, c, "//order//item/name"); got != 36 {
		t.Fatalf("after follower death: %d matches, want 36", got)
	}
}

// TestCorpusIngestConcurrentQueries hammers scatter-gather queries while
// the corpus mutates — inserts, replaces and deletes — and every observed
// count must be a committed multiple of the per-document match count. The
// writer keeps a ledger of what it committed, and the end state is held to
// it: the corpus lists exactly the ledger's documents, no shard's write path
// is poisoned and no replica is down, a plan priced on the incrementally
// merged statistics costs what it costs after a rebuild from scratch, and
// the corpus drains.
func TestCorpusIngestConcurrentQueries(t *testing.T) { testIngestConcurrentQueries(t, 3) }
func TestIngestConcurrentReadersSeeCommittedSnapshots(t *testing.T) {
	testIngestConcurrentQueries(t, 1)
}

func testIngestConcurrentQueries(t *testing.T, shards int) {
	wals := newWALMap()
	c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: wals.file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	const items = 3
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.QueryContext(context.Background(), "//order//item/name", methodOpts(MethodDPP))
				if err != nil {
					errs <- err
					return
				}
				if res.Count%items != 0 {
					errs <- fmt.Errorf("observed uncommitted state: %d matches", res.Count)
					return
				}
			}
		}()
	}
	ledger := map[string]bool{}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("doc%d", i)
		if err := c.InsertString(id, orderXML(items)); err != nil {
			t.Fatal(err)
		}
		ledger[id] = true
		if i%4 == 1 {
			if err := c.ReplaceString(fmt.Sprintf("doc%d", i-1), orderXML(2*items)); err != nil {
				t.Fatal(err)
			}
		}
		if i%4 == 3 {
			gone := fmt.Sprintf("doc%d", i-2)
			if err := c.Delete(gone); err != nil {
				t.Fatal(err)
			}
			delete(ledger, gone)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	ids := c.DocIDs()
	for _, id := range ids {
		if !ledger[id] {
			t.Errorf("corpus holds %s, which the writer deleted or never wrote", id)
		}
	}
	if len(ids) != len(ledger) {
		t.Errorf("corpus holds %d documents, the writer's ledger %d", len(ids), len(ledger))
	}
	if st := c.IngestStats(); st.BrokenShards != 0 || st.DownReplicas != 0 || st.Docs != len(ledger) || st.WALPages == 0 {
		t.Errorf("end state: %+v", st)
	}
	pat := mustPattern(t, "//order//item/name")
	before := mustOptimize(t, c, pat, MethodDPP)
	c.RebuildStats()
	after := mustOptimize(t, c, pat, MethodDPP)
	if before.Cost != after.Cost || before.Plan.Format(pat) != after.Plan.Format(pat) {
		t.Errorf("incremental statistics plan\n%s at %f, rebuilt ones\n%s at %f",
			before.Plan.Format(pat), before.Cost, after.Plan.Format(pat), after.Cost)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestCorpusIngestStatsRefresh: every mutation bumps the corpus statistics
// version, so plans cached before it are re-keyed; and after a pile of
// inserts, replaces and deletes the incrementally merged statistics price
// plans exactly as a from-scratch RebuildStats does.
func TestCorpusIngestStatsRefresh(t *testing.T)           { testIngestStatsRefresh(t, 2) }
func TestIngestStatsVersionInvalidatesPlans(t *testing.T) { testIngestStatsRefresh(t, 1) }
func TestIngestIncrementalStatsMatchRebuild(t *testing.T) { testIngestStatsRefresh(t, 3) }

func testIngestStatsRefresh(t *testing.T, shards int) {
	wals := newWALMap()
	c, err := NewCorpusBuilder(&CorpusOptions{Shards: shards, ShardWALFile: wals.file}).Build()
	if err != nil {
		t.Fatal(err)
	}
	_, v := c.svc.snapshot()
	bump := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		_, nv := c.svc.snapshot()
		if nv <= v {
			t.Fatalf("%s did not bump corpus stats version (%d -> %d)", what, v, nv)
		}
		v = nv
	}
	for i := 0; i < 8; i++ {
		bump("insert", c.InsertString(fmt.Sprintf("d%d", i), orderXML(3+i)))
	}
	bump("replace", c.ReplaceString("d0", orderXML(5)))
	for _, id := range []string{"d1", "d4", "d6"} {
		bump("delete", c.Delete(id))
	}

	queries := []string{
		"//order//item/name",
		"//order[.//qty]//item",
		"//item[qty >= 5]/name",
	}
	type priced struct {
		cost    float64
		matches int
	}
	before := make(map[string]priced)
	for _, q := range queries {
		res := mustOptimize(t, c, mustPattern(t, q), MethodDPP)
		before[q] = priced{cost: res.Cost, matches: countCorpus(t, c, q)}
	}
	c.RebuildStats()
	bump("RebuildStats", nil)
	for _, q := range queries {
		res := mustOptimize(t, c, mustPattern(t, q), MethodDPP)
		if res.Cost != before[q].cost {
			t.Errorf("%s: incremental cost %f, rebuilt cost %f", q, before[q].cost, res.Cost)
		}
		if got := countCorpus(t, c, q); got != before[q].matches {
			t.Errorf("%s: matches changed across rebuild: %d -> %d", q, before[q].matches, got)
		}
	}
}

func TestCorpusStaticHasNoWritePath(t *testing.T) {
	b := NewCorpusBuilder(nil)
	if err := b.AddXMLString("only", orderXML(2)); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.IngestEnabled() {
		t.Fatal("static corpus reports ingest enabled")
	}
	if err := c.InsertString("x", orderXML(1)); err != ErrNoWAL {
		t.Fatalf("Insert = %v, want ErrNoWAL", err)
	}
	if err := c.Delete("only"); err != ErrNoWAL {
		t.Fatalf("Delete = %v, want ErrNoWAL", err)
	}
}

// TestCorpusReadOnlyReleasesMembers: after Build, no engine of a read-only
// corpus — primary or follower — keeps a member document beside its forest,
// while every engine of a writable corpus keeps them for staging, logging and
// compaction. RebuildStats on the released corpus leaves the plans alone.
func TestCorpusReadOnlyReleasesMembers(t *testing.T) {
	docs := func(c *Corpus) (held, members int) {
		for _, sh := range c.shards {
			if sh == nil {
				continue
			}
			for _, rep := range sh.replicas {
				for _, m := range rep.eng.members {
					members++
					if m.doc != nil {
						held++
					}
				}
			}
		}
		return held, members
	}
	ids, xdocs := corpusFixtureDocs(t, 4)
	ro := buildTestCorpus(t, ids, xdocs, &CorpusOptions{Shards: 2, ReplicasPerShard: 2})
	if held, members := docs(ro); members != 8 || held != 0 {
		t.Fatalf("read-only corpus holds %d of %d member documents, want 0 of 8", held, members)
	}
	pat := MustParsePattern(`//article//author`)
	before := mustOptimize(t, ro, pat, MethodDPP)
	ro.RebuildStats()
	after := mustOptimize(t, ro, pat, MethodDPP)
	if after.Cost != before.Cost || after.Plan.Format(pat) != before.Plan.Format(pat) {
		t.Fatalf("RebuildStats over released members moved the plan: %v -> %v", before.Cost, after.Cost)
	}
	rw := buildTestCorpus(t, ids, xdocs, &CorpusOptions{
		Shards:           2,
		ReplicasPerShard: 2,
		ShardWALFile:     func(int) PageFile { return NewMemPageFile() },
	})
	if held, members := docs(rw); members != 8 || held != 8 {
		t.Fatalf("writable corpus holds %d of %d member documents, want 8 of 8", held, members)
	}
}

// TestIngestRecoveryAfterCompaction: a compaction re-logs the live members
// as a fresh base snapshot, and recovery replays from it — the snapshot,
// then the writes made after it.
func TestIngestRecoveryAfterCompaction(t *testing.T) {
	wal := storage.NewMemFile()
	c, err := oneShardCorpus(wal, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		id string
		n  int
	}{{"a", 4}, {"b", 6}, {"c", 3}} {
		if err := c.InsertString(d.id, orderXML(d.n)); err != nil {
			t.Fatal(err)
		}
	}
	// b holds most of the store's nodes: deleting it crosses the threshold.
	if err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if st := c.IngestStats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if df := c.shards[0].meta().view().store.DeadFraction(); df != 0 {
		t.Fatalf("dead fraction %f after compaction", df)
	}
	// Mutate past the compaction snapshot, staying under the threshold.
	if err := c.ReplaceString("a", orderXML(9)); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertString("post", orderXML(5)); err != nil {
		t.Fatal(err)
	}
	want := countCorpus(t, c, "//order//item/name")
	if want != 9+3+5 || c.IngestStats().Compactions != 1 {
		t.Fatalf("before recovery: %d matches after %d compactions, want %d after 1", want, c.IngestStats().Compactions, 9+3+5)
	}
	rec, err := oneShardCorpus(wal, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if got := countCorpus(t, rec, "//order//item/name"); got != want {
		t.Fatalf("recovered: %d matches, want %d", got, want)
	}
	if got := rec.IngestStats().RecoveredTxns; got != 3 {
		t.Fatalf("recovery replayed %d transactions, want the compaction snapshot and the 2 writes after it", got)
	}
}

func TestIngestAutoCompaction(t *testing.T) {
	c, err := oneShardCorpus(storage.NewMemFile(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.InsertString(fmt.Sprintf("d%d", i), orderXML(5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := c.Delete(fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	df := c.shards[0].meta().view().store.DeadFraction()
	if c.IngestStats().Compactions == 0 {
		t.Fatalf("no automatic compaction (dead fraction %f)", df)
	}
	if df >= 0.4 {
		t.Fatalf("dead fraction %f still above threshold", df)
	}
	if got := countCorpus(t, c, "//order//item/name"); got != 5 {
		t.Fatalf("%d matches, want 5", got)
	}
}

// TestCorpusIngestDiskWAL: a one-shard corpus logging to a disk file,
// mutated, then rebuilt over the same file reopened must recover exactly the
// committed documents and keep accepting writes.
func TestCorpusIngestDiskWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.wal")
	wal, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := oneShardCorpus(wal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertString("a", orderXML(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertString("b", orderXML(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := oneShardCorpus(reopened, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.DocIDs(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("recovered documents %v, want [b]", got)
	}
	if n := countCorpus(t, rec, "//order//item/name"); n != 3 {
		t.Fatalf("recovered matches = %d, want 3", n)
	}
	if err := rec.InsertString("c", orderXML(1)); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
}
