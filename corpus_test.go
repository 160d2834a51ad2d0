package sjos

// Corpus differential suite: a corpus over N documents must answer exactly
// as the concatenation of N one-document corpora, for every
// optimizer method and every execution mode — plus first-k, count-only,
// shared derived handles, and a chaos run with one failing shard.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sjos/internal/datagen"
	"sjos/internal/exec"
	"sjos/internal/faultfs"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// corpusFixtureDocs generates n distinct small dblp-like documents.
func corpusFixtureDocs(t *testing.T, n int) ([]string, []*xmltree.Document) {
	return corpusFixtureDocsScale(t, n, 0.02)
}

func corpusFixtureDocsScale(t *testing.T, n int, scale float64) ([]string, []*xmltree.Document) {
	t.Helper()
	ids := make([]string, n)
	docs := make([]*xmltree.Document, n)
	for i := range docs {
		doc, err := datagen.Generate(datagen.Config{Name: "dblp", Scale: scale, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}[i%6] + strings.Repeat("x", i/6)
		docs[i] = doc
	}
	return ids, docs
}

// buildTestCorpus assembles the documents into a corpus (white-box: adds
// pre-built documents directly, so one-document corpora over the very same
// documents are the ground truth).
func buildTestCorpus(t *testing.T, ids []string, docs []*xmltree.Document, opts *CorpusOptions) *Corpus {
	t.Helper()
	b := NewCorpusBuilder(opts)
	for i, doc := range docs {
		if err := b.add(ids[i], doc, nil); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// standaloneResults computes the ground truth: each document queried alone,
// as a one-document corpus, results concatenated in document order. Each document's rows are first held
// to the brute-force reference as a multiset, so the in-order yardstick every
// corpus matrix compares against is itself checked by code that shares
// nothing with the executor.
func standaloneResults(t *testing.T, ids []string, docs []*xmltree.Document, pat *Pattern) []CorpusMatch {
	t.Helper()
	var want []CorpusMatch
	for gi, doc := range docs {
		res, err := docCorpus(t, doc, nil).QueryContext(context.Background(), pat.String(), methodOpts(MethodDPP))
		if err != nil {
			t.Fatal(err)
		}
		rows := rowsOf(res.Segments)
		if ref := exec.ReferenceMatches(doc, pat); !equalStrings(canonicalize(rows), canonicalize(ref)) {
			t.Fatalf("document %s: %d matches, brute force %d", ids[gi], len(rows), len(ref))
		}
		for _, m := range rows {
			want = append(want, CorpusMatch{DocID: ids[gi], Doc: gi, Nodes: m})
		}
	}
	return want
}

func sameCorpusMatches(got, want []CorpusMatch) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].DocID != want[i].DocID || got[i].Doc != want[i].Doc {
			return false
		}
		if len(got[i].Nodes) != len(want[i].Nodes) {
			return false
		}
		for u := range got[i].Nodes {
			if got[i].Nodes[u] != want[i].Nodes[u] {
				return false
			}
		}
	}
	return true
}

func TestCorpusDifferential(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 5)
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 3})
	if c.NumShards() != 3 || c.NumDocs() != 5 {
		t.Fatalf("shards=%d docs=%d, want 3/5", c.NumShards(), c.NumDocs())
	}
	methods := []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
	for _, src := range []string{
		`//article//author`,
		`//article[year < 1980]/title`,
	} {
		pat := MustParsePattern(src)
		want := standaloneResults(t, ids, docs, pat)
		if len(want) == 0 {
			t.Fatalf("%s: ground truth is empty — fixture too small", src)
		}
		for _, m := range methods {
			opt, err := c.OptimizeContext(context.Background(), pat, m, 0)
			if err != nil {
				t.Fatalf("%s/%v: optimize: %v", src, m, err)
			}
			res, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{})
			if err != nil {
				t.Fatalf("%s/%v: %v", src, m, err)
			}
			if !sameCorpusMatches(res.Matches, want) {
				t.Fatalf("%s/%v: corpus result (%d matches) differs from per-document concatenation (%d)",
					src, m, len(res.Matches), len(want))
			}
			if res.Count != len(want) {
				t.Fatalf("%s/%v: Count = %d, want %d", src, m, res.Count, len(want))
			}
			if res.ShardsQueried != 3 {
				t.Fatalf("%s/%v: ShardsQueried = %d, want 3", src, m, res.ShardsQueried)
			}
		}
	}
}

func TestCorpusLimitAndCountOnly(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 4)
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 2})
	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)
	total := len(want)
	if total < 4 {
		t.Fatalf("fixture too small: %d matches", total)
	}
	opt := mustOptimize(t, c, pat, MethodDPP)

	full, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Count != total || full.Matches != nil {
		t.Fatalf("count-only: Count=%d Matches=%v, want %d/nil", full.Count, full.Matches, total)
	}

	for _, k := range []int{1, 2, total - 1, total, total + 7} {
		res, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{ExecOptions: ExecOptions{Limit: k}})
		if err != nil {
			t.Fatalf("limit %d: %v", k, err)
		}
		n := min(k, total)
		if !sameCorpusMatches(res.Matches, want[:n]) {
			t.Fatalf("limit %d: got %d matches, want the first %d of the concatenation", k, len(res.Matches), n)
		}
		// Limit composes with CountOnly: count the limited prefix.
		cres, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{ExecOptions: ExecOptions{Limit: k}, CountOnly: true})
		if err != nil {
			t.Fatalf("limit %d count-only: %v", k, err)
		}
		if cres.Count != n || cres.Matches != nil {
			t.Fatalf("limit %d count-only: Count=%d, want %d", k, cres.Count, n)
		}
	}

	// A one-document corpus's planned query under QueryOptions.CountOnly
	// leaves Matches nil and reports the rows of the row query as Count and
	// as Exec.OutputTuples.
	db := docCorpus(t, docs[0], nil)
	for _, k := range []int{0, 1, 3} {
		opts := QueryOptions{ExecOptions: ExecOptions{Method: MethodDPP, Limit: k}}
		rows, err := db.queryPattern(context.Background(), pat, opts)
		if err != nil {
			t.Fatalf("database limit %d: %v", k, err)
		}
		opts.CountOnly = true
		counted, err := db.queryPattern(context.Background(), pat, opts)
		if err != nil {
			t.Fatalf("database limit %d count-only: %v", k, err)
		}
		if n := rows.Count; n == 0 || counted.Segments != nil || counted.Count != n || counted.Exec.OutputTuples != n {
			t.Fatalf("database limit %d count-only: %d segments, Count %d, OutputTuples %d, want nil and the %d rows of the row query",
				k, len(counted.Segments), counted.Count, counted.Exec.OutputTuples, n)
		}
	}
}

func TestCorpusQueryContext(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 3)
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 2})
	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)

	res, err := c.QueryContext(context.Background(), `//article//author`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCorpusMatches(corpusMatches(res.Segments, res.Count), want) {
		t.Fatalf("QueryContext result differs from per-document concatenation")
	}
	if res.CachedPlan {
		t.Fatal("first query reported a cached plan")
	}
	if res.PlanText == "" || res.Plan == nil {
		t.Fatal("missing plan in query result")
	}

	// Second identical query must hit the corpus plan cache.
	res2, err := c.QueryContext(context.Background(), `//article//author`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CachedPlan {
		t.Fatal("second query did not see the cached plan")
	}
	if !sameCorpusMatches(corpusMatches(res2.Segments, res2.Count), want) {
		t.Fatal("cached-plan result differs")
	}
	if cs := c.Metrics().Cache; cs.Hits == 0 {
		t.Fatalf("corpus cache stats show no hit: %+v", cs)
	}

	// Tracing produces one merged corpus trace.
	res3, err := c.QueryContext(context.Background(), `//article//author`, QueryOptions{ExecOptions: ExecOptions{Method: MethodDPP, Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Trace == nil || res3.Trace.Rows != int64(len(want)) {
		t.Fatalf("merged trace: %+v, want root Rows = %d", res3.Trace, len(want))
	}

	// RebuildStats bumps the stats version: cached plans are invalidated.
	c.RebuildStats()
	res4, err := c.QueryContext(context.Background(), `//article//author`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if res4.CachedPlan {
		t.Fatal("plan survived a stats rebuild")
	}
	if !sameCorpusMatches(corpusMatches(res4.Segments, res4.Count), want) {
		t.Fatal("post-rebuild result differs")
	}
}

// TestCorpusChaosOneShard injects read failures into exactly one shard's
// page file: every query must return either the exact fault-free result or
// the injected typed error — never a partial merge.
func TestCorpusChaosOneShard(t *testing.T) {
	// Large enough documents that the 8-frame pool cannot hold a shard's
	// working set: every run performs physical reads the policy can hit.
	ids, docs := corpusFixtureDocsScale(t, 4, 0.5)
	var faulty *faultfs.File
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{
		Shards:     2,
		PoolFrames: 8,
		ShardPageFile: func(shard, replica int) PageFile {
			f := storage.NewMemFile()
			if shard != 1 {
				return f
			}
			faulty = faultfs.Wrap(f, faultfs.Policy{})
			return faulty
		},
	})
	if faulty == nil {
		t.Fatal("shard 1 was not built on the fault-injecting file")
	}
	pat := MustParsePattern(`//article//author`)
	want := standaloneResults(t, ids, docs, pat)
	opt := mustOptimize(t, c, pat, MethodDPP)
	run := func(opts QueryOptions) (*CorpusRunResult, error) {
		res, err := c.Run(context.Background(), pat, opt.Plan, opts)
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Fatalf("panic escaped as error: %v\n%s", pe, pe.Stack)
		}
		return res, err
	}
	var fired, healed int
	faulty.SetPolicy(faultfs.Policy{})
	base, err := run(QueryOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if !sameCorpusMatches(base.Matches, want) {
		t.Fatal("baseline differs from per-document concatenation")
	}
	reads := int(faulty.Reads())
	for _, p := range faultPoints(reads) {
		// Permanent failure in one shard: the whole query fails with the
		// injected error (no partial result), or the fault point was past
		// this run's reads and the result is exact.
		faulty.SetPolicy(faultfs.Policy{FailNthRead: p})
		if res, err := run(QueryOptions{}); err != nil {
			fired++
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("failNth=%d: error = %v, want injected", p, err)
			}
			if res != nil {
				t.Fatalf("failNth=%d: partial result alongside error", p)
			}
		} else if !sameCorpusMatches(res.Matches, want) {
			t.Fatalf("failNth=%d: result differs from fault-free answer", p)
		}

		// Transient failure: the shard pool's retry loop heals it.
		faulty.SetPolicy(faultfs.Policy{FailNthRead: p, Transient: true})
		res, err := run(QueryOptions{})
		if err != nil {
			t.Fatalf("transient failNth=%d: %v", p, err)
		}
		if !sameCorpusMatches(res.Matches, want) {
			t.Fatalf("transient failNth=%d: result differs", p)
		}
		if faulty.FaultsInjected() > 0 {
			healed++
		}
	}
	if fired == 0 {
		t.Fatal("no permanent fault ever fired — sweep did not cover the read schedule")
	}
	if healed == 0 {
		t.Fatal("no transient fault was healed")
	}
	// The corpus surfaces the shard's injected-fault count in its health
	// and aggregated metrics (counters reset on SetPolicy, so force one
	// fresh fault and read them while it is live).
	faulty.SetPolicy(faultfs.Policy{FailNthRead: 1, Transient: true, MaxFaults: 1})
	if _, err := run(QueryOptions{}); err != nil {
		t.Fatalf("transient warm-up: %v", err)
	}
	var health uint64
	for _, h := range c.Health() {
		health += h.FaultsInjected
	}
	if health == 0 || c.Metrics().FaultsInjected != health {
		t.Fatalf("fault counters: health=%d metrics=%d", health, c.Metrics().FaultsInjected)
	}
}

func TestCorpusDrainAndAdmission(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 2)
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 2, MaxInFlight: 2})
	if _, err := c.QueryContext(context.Background(), `//article//author`, methodOpts(MethodDPP)); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := c.QueryContext(context.Background(), `//article//author`, methodOpts(MethodDPP))
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-drain corpus query: %v, want ErrShuttingDown", err)
	}
	if c.Metrics().Admission.Rejected == 0 {
		t.Fatal("corpus admission counters missed the rejection")
	}
}

func TestCorpusAccessors(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 4)
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 3})
	if got := c.DocIDs(); len(got) != 4 || got[0] != ids[0] || got[3] != ids[3] {
		t.Fatalf("DocIDs = %v", got)
	}
	for _, id := range ids {
		s, ok := c.ShardOf(id)
		if !ok || s < 0 || s >= c.NumShards() {
			t.Fatalf("ShardOf(%q) = %d, %v", id, s, ok)
		}
	}
	if _, ok := c.ShardOf("no-such-doc"); ok {
		t.Fatal("ShardOf found a nonexistent document")
	}

	// Per-document node accessors agree with the standalone document.
	pat := MustParsePattern(`//article/title`)
	want := standaloneResults(t, ids, docs, pat)
	res, err := c.QueryContext(context.Background(), `//article/title`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	got := corpusMatches(res.Segments, res.Count)
	if !sameCorpusMatches(got, want) {
		t.Fatal("accessor fixture query differs")
	}
	m := got[0]
	gi := m.Doc
	for u, id := range m.Nodes {
		wantTag := docs[gi].TagName(docs[gi].Tag(id))
		if tag, ok := c.TagName(m.DocID, id); !ok || tag != wantTag {
			t.Fatalf("TagName(%q, %d) = %q, %v; want %q", m.DocID, id, tag, ok, wantTag)
		}
		if val, ok := c.Value(m.DocID, id); !ok || val != docs[gi].Value(id) {
			t.Fatalf("Value mismatch at slot %d", u)
		}
	}
	if _, ok := c.TagName(m.DocID, NodeID(1<<30)); ok {
		t.Fatal("TagName accepted an out-of-range node")
	}

	// Health covers every shard and counts exactly the corpus's documents
	// and nodes (synthetic forest roots excluded).
	var hd, hn int
	for _, h := range c.Health() {
		hd += h.Docs
		hn += h.Nodes
	}
	wantNodes := 0
	for _, d := range docs {
		wantNodes += d.NumNodes()
	}
	if hd != 4 || hn != wantNodes {
		t.Fatalf("health sums: docs=%d nodes=%d, want 4/%d", hd, hn, wantNodes)
	}

	var sb strings.Builder
	c.WriteMetrics(&sb)
	for _, want := range []string{"sjos_queries_total", "sjos_pool_hits_total", "sjos_plancache_hits_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("corpus metrics exposition missing %s", want)
		}
	}
}

func TestCorpusBuilderErrors(t *testing.T) {
	b := NewCorpusBuilder(nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("empty corpus built")
	}
	b = NewCorpusBuilder(nil)
	if err := b.AddXMLString("d1", `<a><b/></a>`); err != nil {
		t.Fatal(err)
	}
	if err := b.AddXMLString("d1", `<a><c/></a>`); err == nil {
		t.Fatal("duplicate document ID accepted")
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("Build ignored the sticky builder error")
	}
	b = NewCorpusBuilder(nil)
	if err := b.AddXMLString("", `<a/>`); err == nil {
		t.Fatal("empty document ID accepted")
	}
}

func TestCorpusFromXML(t *testing.T) {
	b := NewCorpusBuilder(&CorpusOptions{Shards: 2})
	if err := b.AddXMLString("one", `<lib><book><author>k</author></book></lib>`); err != nil {
		t.Fatal(err)
	}
	if err := b.AddXMLString("two", `<lib><book><author>p</author><author>q</author></book></lib>`); err != nil {
		t.Fatal(err)
	}
	if n := b.NumPending(); n != 2 {
		t.Fatalf("NumPending = %d", n)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryContext(context.Background(), `//book//author`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("Count = %d, want 3", res.Count)
	}
	// Document order: all of "one"'s matches before "two"'s.
	if got := corpusMatches(res.Segments, res.Count); got[0].DocID != "one" || got[1].DocID != "two" || got[2].DocID != "two" {
		t.Fatalf("match order: %v", got)
	}
}

// TestCorpusExplainAnalyzeCounts: EXPLAIN ANALYZE over a three-shard corpus
// reports the count Run reports, beside its buffer-pool line.
func TestCorpusExplainAnalyzeCounts(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 6)
	c := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 3})
	pat := MustParsePattern(`//article[author]/title`)
	opt := mustOptimize(t, c, pat, MethodDPP)
	res, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsQueried != 3 || res.Count == 0 {
		t.Fatalf("fixture: %d shards queried, %d matches; want 3 and some", res.ShardsQueried, res.Count)
	}
	s, err := c.ExplainAnalyze(pat, MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(", %d matches\n", res.Count); !strings.Contains(s, want) {
		t.Fatalf("ExplainAnalyze does not report Run's %d matches:\n%s", res.Count, s)
	}
	if !strings.Contains(s, "buffer pool: ") {
		t.Fatalf("ExplainAnalyze has no buffer-pool line:\n%s", s)
	}
}

// TestOptimizeWithExactStatsShards: the oracle estimator reads one forest,
// so it serves a corpus with one populated shard — however many documents
// that shard holds — and rejects one with more, naming the count.
func TestOptimizeWithExactStatsShards(t *testing.T) {
	ids, docs := corpusFixtureDocs(t, 4)
	pat := MustParsePattern(`//article[author]/title`)
	one := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 1})
	exact, err := one.OptimizeWithExactStats(pat, MethodDPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := execCount(one, pat, exact.Plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := one.QueryContext(context.Background(), pat.String(), methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if got != res.Count {
		t.Fatalf("exact-stats plan counts %d matches, the histogram plan %d", got, res.Count)
	}
	many := buildTestCorpus(t, ids, docs, &CorpusOptions{Shards: 3})
	populated := 0
	for _, h := range many.Health() {
		if h.Docs > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("fixture populated %d of 3 shards, want at least 2", populated)
	}
	_, err = many.OptimizeWithExactStats(pat, MethodDPP, 0)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d populated shards", populated)) {
		t.Fatalf("OptimizeWithExactStats over %d populated shards = %v, want an error naming them", populated, err)
	}
}
