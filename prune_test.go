package sjos

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sjos/internal/exec"
	"sjos/internal/replica"
)

// Shard pruning: a scatter skips every shard where some pattern node has no
// candidates. These tests hold the pruned scatter to the brute-force oracle,
// to concurrent writes, and to what it must leave alone — replica health,
// goroutines, allocations and the trace.

var allMethods = []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}

// valueTally is how one value of a `//x/name` path spreads over a corpus:
// the rows holding it and the shards those rows lie on.
type valueTally struct {
	Rows   int
	Shards map[int]bool
}

// tallyValues runs shape (a `//x/name` path) and tallies every value of its
// last node.
func tallyValues(tb testing.TB, c *Corpus, shape string) map[string]*valueTally {
	tb.Helper()
	res, err := c.QueryContext(context.Background(), shape, QueryOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]*valueTally{}
	for i := range res.Segments {
		seg := &res.Segments[i]
		s, _ := c.ShardOf(seg.DocID)
		for r := 0; r < seg.Len(); r++ {
			row := seg.Row(r)
			v := seg.Value(row[len(row)-1])
			if out[v] == nil {
				out[v] = &valueTally{Shards: map[int]bool{}}
			}
			out[v].Rows++
			out[v].Shards[s] = true
		}
	}
	return out
}

// valueOnShards returns the least value (byte order) of the tally held on
// exactly n shards, or "" when there is none.
func valueOnShards(m map[string]*valueTally, n int) string {
	var vals []string
	for v, t := range m {
		if len(t.Shards) == n {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return ""
	}
	return slices.Min(vals)
}

// pointShape is one request shape: its source, whether it is asked
// count-only, and whether only its first-k answers are checked.
type pointShape struct {
	src        string
	countOnly  bool
	firstKOnly bool
}

// pointShapes is every request shape of the benchmark's point_cached mix on
// the serving corpus: name probes of the three classes held on one shard, on
// two and on the most shards any value reaches, absent values and tags, the
// salary range, the count-only path and the four limit-10 Table-1 queries
// (first-k only: their full results are the bulk lanes').
func pointShapes(tb testing.TB, c *Corpus) []pointShape {
	tb.Helper()
	var out []pointShape
	for _, class := range []struct{ shape, probe string }{
		{`//employee/name`, `//employee[name=%q]`},
		{`//department/name`, `//department[name=%q]`},
		{`//manager/name`, `//manager[name=%q]//employee/name`},
	} {
		m := tallyValues(tb, c, class.shape)
		most := 0
		for _, t := range m {
			most = max(most, len(t.Shards))
		}
		for _, n := range []int{1, 2, most} {
			v := valueOnShards(m, n)
			if v == "" {
				tb.Fatalf("%s: no value on %d shards", class.shape, n)
			}
			out = append(out, pointShape{src: fmt.Sprintf(class.probe, v)})
		}
		out = append(out, pointShape{src: fmt.Sprintf(class.probe, "no-such")})
	}
	out = append(out,
		pointShape{src: `//employee[salary>118000]/name`},
		pointShape{src: `//manager/name`, countOnly: true},
		pointShape{src: `//manager//nosuchtag`},
		pointShape{src: `//nosuchtag[name="x"]`},
	)
	for _, q := range []string{qPers1a, `//manager[department/name]//employee/name`, `//manager[.//employee/name]//manager/department/name`, qPers4d} {
		out = append(out, pointShape{src: q, firstKOnly: true})
	}
	return out
}

// referenceRows is the brute-force answer of pat on c: every shard forest's
// reference matches, rebased into their documents' numbering, canonicalised
// per document.
func referenceRows(c *Corpus, pat *Pattern) map[string][]string {
	out := map[string][]string{}
	for _, sh := range c.shards {
		if sh == nil {
			continue
		}
		sn := sh.meta().view()
		for _, m := range exec.ReferenceMatches(sn.doc, pat) {
			for _, mv := range sn.members {
				if m[0] >= mv.span.First && int(m[0]-mv.span.First) < mv.span.Nodes {
					for u := range m {
						m[u] -= mv.span.First
					}
					out[mv.id] = append(out[mv.id], canonicalize([]Match{m})...)
					break
				}
			}
		}
	}
	for id := range out {
		sort.Strings(out[id])
	}
	return out
}

// resultRows is a corpus result's rows per document, canonicalised, and its
// rows in result order as "doc:row" strings.
func resultRows(t *testing.T, segs []DocSegment) (map[string][]string, []string) {
	t.Helper()
	per := map[string][]string{}
	var flat []string
	last := -1
	for i := range segs {
		seg := &segs[i]
		if seg.Doc <= last {
			t.Fatalf("segment of document %d after document %d", seg.Doc, last)
		}
		last = seg.Doc
		for r := 0; r < seg.Len(); r++ {
			row := canonicalize([]Match{seg.Row(r)})[0]
			per[seg.DocID] = append(per[seg.DocID], row)
			flat = append(flat, seg.DocID+":"+row)
		}
		sort.Strings(per[seg.DocID])
	}
	return per, flat
}

// TestPrunedScatterMatchesReference runs every point_cached shape with every
// method at limits 0, 1 and 10 on the serving corpus, and on the same
// documents with two replicas a shard and one follower down: each answer is
// the brute-force oracle's (a limited one the unlimited answer's prefix), and
// the two corpora agree row for row.
func TestPrunedScatterMatchesReference(t *testing.T) {
	plain := servingCorpus(t)
	replicated := servingCorpusOn(t, "doc-", 4, 2)
	down, _ := replicated.ShardOf("doc-00")
	replicated.shards[down].replicas[1].down.Store(true)
	ctx := context.Background()
	pruned := 0
	for _, sh := range pointShapes(t, plain) {
		pat := MustParsePattern(sh.src)
		var ref map[string][]string
		total := 0
		if !sh.firstKOnly {
			ref = referenceRows(plain, pat)
			for _, rows := range ref {
				total += len(rows)
			}
		}
		pruned += PrunedShards(plain, pat)
		for _, m := range allMethods {
			var full []string
			for _, limit := range []int{0, 1, 10} {
				if sh.firstKOnly && limit == 0 {
					continue
				}
				opts := QueryOptions{ExecOptions: ExecOptions{Method: m, Limit: limit}, CountOnly: sh.countOnly}
				var flats [2][]string
				for i, c := range []*Corpus{plain, replicated} {
					res, err := c.QueryContext(ctx, sh.src, opts)
					if err != nil {
						t.Fatalf("%s/%v/limit %d: %v", sh.src, m, limit, err)
					}
					want := total
					if sh.firstKOnly {
						want = limit
					} else if limit > 0 {
						want = min(total, limit)
					}
					if res.Count != want || res.ShardsQueried != 4 {
						t.Fatalf("%s/%v/limit %d: %d rows from %d shards, want %d from 4", sh.src, m, limit, res.Count, res.ShardsQueried, want)
					}
					per, flat := resultRows(t, res.Segments)
					if !sh.countOnly && !sh.firstKOnly && limit == 0 && !reflect.DeepEqual(per, ref) {
						t.Fatalf("%s/%v: rows differ from the reference", sh.src, m)
					}
					if !sh.firstKOnly && limit == 0 && i == 0 {
						full = flat
					}
					if !sh.countOnly && !sh.firstKOnly && limit > 0 && !slices.Equal(flat, full[:len(flat)]) {
						t.Fatalf("%s/%v/limit %d: rows are not the unlimited answer's prefix", sh.src, m, limit)
					}
					flats[i] = flat
				}
				if !slices.Equal(flats[0], flats[1]) {
					t.Fatalf("%s/%v/limit %d: the replicated corpus answers differently", sh.src, m, limit)
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no shape pruned any shard")
	}
	if got := plain.Metrics().Replica.ShardsPruned; got == 0 {
		t.Fatal("sjos_shards_pruned_total stayed 0")
	}
}

// TestPrunedScatterUnderWrites inserts and deletes a document holding the
// only copy of a value and of a tag while probes for them run: every answer
// is the one before the write or the one after it.
func TestPrunedScatterUnderWrites(t *testing.T) {
	c := servingCorpus(t)
	const id, doc = "probe-doc", `<db><department><name>dept-race</name></department><zzprobe/></db>`
	rounds := 30
	if testing.Short() {
		rounds = 5
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, src := range []string{`//department[name="dept-race"]`, `//zzprobe`} {
		for _, limit := range []int{0, 1} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := QueryOptions{ExecOptions: ExecOptions{Method: MethodDPAPEB, Limit: limit}}
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := c.QueryContext(context.Background(), src, opts)
					if err != nil {
						errs <- err
						return
					}
					switch {
					case res.Count == 0 && len(res.Segments) == 0:
					case res.Count == 1 && len(res.Segments) == 1 && res.Segments[0].DocID == id:
					default:
						errs <- fmt.Errorf("%s: %d rows in %d segments, want none or the one of %s", src, res.Count, len(res.Segments), id)
						return
					}
				}
			}()
		}
	}
	for i := 0; i < rounds; i++ {
		if err := c.InsertString(id, doc); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Settled, each probe answers the state it is asked in.
	for _, step := range []struct {
		write func() error
		rows  int
	}{{func() error { return c.InsertString(id, doc) }, 1}, {func() error { return c.Delete(id) }, 0}} {
		if err := step.write(); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{`//department[name="dept-race"]`, `//zzprobe`} {
			res, err := c.QueryContext(context.Background(), src, QueryOptions{ExecOptions: ExecOptions{Method: MethodDPAPEB}})
			if err != nil || res.Count != step.rows {
				t.Fatalf("%s: %v, %d rows, want %d", src, err, res.Count, step.rows)
			}
		}
	}
}

// TestPrunedShardLeavesHealth: a shard the scatter prunes records neither a
// success nor a failure on any replica, and a degraded replica's half-open
// probe slot stays free for the next query that does run there.
func TestPrunedShardLeavesHealth(t *testing.T) {
	c := servingCorpusOn(t, "doc-", 4, 2)
	dept := tallyValues(t, c, `//department/name`)
	v := valueOnShards(dept, 1)
	var only int
	for s := range dept[v].Shards {
		only = s
	}
	degraded := c.shards[(only+1)%4].replicas[1]
	for i := 0; i < 4; i++ {
		degraded.health.RecordFailure()
	}
	if degraded.health.State() != replica.Probation {
		t.Fatalf("degraded replica is %v, want probation", degraded.health.State())
	}
	counts := func() [][2]uint64 {
		var out [][2]uint64
		for _, h := range c.Health() {
			for _, r := range h.Replicas {
				out = append(out, [2]uint64{r.Successes, r.Failures})
			}
		}
		return out
	}
	before := counts()
	for _, src := range []string{`//department[name="no-such"]`, `//nosuchtag`} {
		res, err := c.QueryContext(context.Background(), src, QueryOptions{})
		if err != nil || res.Count != 0 {
			t.Fatalf("%s: %v, %d rows", src, err, res.Count)
		}
	}
	if after := counts(); !reflect.DeepEqual(after, before) {
		t.Fatalf("fully pruned queries moved replica health: %v → %v", before, after)
	}
	res, err := c.QueryContext(context.Background(), fmt.Sprintf(`//department[name=%q]`, v), QueryOptions{})
	if err != nil || res.Count == 0 {
		t.Fatalf("probe of %q: %v, %d rows", v, err, res.Count)
	}
	after := counts()
	moved := 0
	for i := range after {
		if after[i] != before[i] {
			moved++
			if i/2 != only || after[i][0] != before[i][0]+1 {
				t.Fatalf("replica %d of shard %d: %v → %v; only shard %d ran", i%2, i/2, before[i], after[i], only)
			}
		}
	}
	if moved != 1 {
		t.Fatalf("%d replicas recorded the probe, want the one that served it", moved)
	}
	if !degraded.health.AllowProbe(time.Now()) {
		t.Fatal("a pruned shard's degraded replica lost its probe slot")
	}
}

// TestScatterLeavesNoGoroutine: pruned, lone-survivor, limit-cancelled and
// full scatters all return with every goroutine they started finished.
func TestScatterLeavesNoGoroutine(t *testing.T) {
	c := servingCorpus(t)
	v := valueOnShards(tallyValues(t, c, `//department/name`), 1)
	ctx := context.Background()
	queries := []struct {
		src   string
		limit int
	}{
		{`//department[name="no-such"]`, 0},
		{fmt.Sprintf(`//department[name=%q]`, v), 0},
		{qPers1a, 10},
		{qPers4d, 1},
		{`//manager/name`, 0},
	}
	for _, q := range queries { // plans cached, pools warm
		if _, err := c.QueryContext(ctx, q.src, QueryOptions{ExecOptions: ExecOptions{Limit: q.limit}}); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		for _, q := range queries {
			if _, err := c.QueryContext(ctx, q.src, QueryOptions{ExecOptions: ExecOptions{Limit: q.limit}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A worker that has signalled its WaitGroup may still be on its way out.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the queries, %d before\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestTraceWhenNoShardRuns: a traced query every shard prunes still reports
// the plan-shaped trace, with zero actuals, and EXPLAIN ANALYZE renders it.
func TestTraceWhenNoShardRuns(t *testing.T) {
	c := servingCorpus(t)
	pat := MustParsePattern(`//department[name="no-such"]`)
	opt := mustOptimize(t, c, pat, MethodDPAPEB)
	res, err := c.Run(context.Background(), pat, opt.Plan, QueryOptions{ExecOptions: ExecOptions{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Trace == nil {
		t.Fatalf("%d rows, trace %v", res.Count, res.Trace)
	}
	var walk func(tr *OpTrace) int
	walk = func(tr *OpTrace) int {
		if tr.Rows != 0 || tr.Batches != 0 || tr.Clones != 0 {
			t.Fatalf("%s %s: actuals %+v, want none", tr.Op, tr.Detail, tr)
		}
		n := 1
		for _, ch := range tr.Children {
			n += walk(ch)
		}
		return n
	}
	var size func(p *Plan) int
	size = func(p *Plan) int {
		if p == nil {
			return 0
		}
		return 1 + size(p.Left) + size(p.Right)
	}
	if n, want := walk(res.Trace), size(opt.Plan); n != want {
		t.Fatalf("trace has %d operators, plan %d", n, want)
	}
	out, err := c.ExplainAnalyze(pat, MethodDPAPEB)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 matches") || !strings.Contains(out, "actual=0") {
		t.Fatalf("EXPLAIN ANALYZE of a pruned query:\n%s", out)
	}
}

// TestPlanTextOncePerEntry: two numberings of one pattern share a plan-cache
// entry, and each gets the text Format renders for its own numbering.
func TestPlanTextOncePerEntry(t *testing.T) {
	c := xmlCorpus(t, `<r><a><b/><c/></a><a><c/><b/></a></r>`, nil)
	ctx := context.Background()
	for i, src := range []string{`//a[b][c]`, `//a[c][b]`, `//a[b][c]`, `//a[c][b]`} {
		res, err := c.QueryContext(ctx, src, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CachedPlan != (i > 0) {
			t.Fatalf("%s (query %d): cached = %v", src, i, res.CachedPlan)
		}
		if want := res.Plan.Format(MustParsePattern(src)); res.PlanText != want {
			t.Fatalf("%s (query %d): plan text\n%s\nwant\n%s", src, i, res.PlanText, want)
		}
	}
	if n := c.Metrics().Cache.Entries; n != 1 {
		t.Fatalf("%d cache entries, want 1", n)
	}
}
