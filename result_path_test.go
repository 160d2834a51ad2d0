package sjos

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"sjos/internal/exec"
)

// servingCorpus is the geometry the repository benchmark serves: 8 pers
// documents over 4 write-enabled shards.
func servingCorpus(tb testing.TB) *Corpus {
	tb.Helper()
	b := NewCorpusBuilder(&CorpusOptions{Shards: 4, ShardWALFile: func(int) PageFile { return NewMemPageFile() }})
	for i := 0; i < 8; i++ {
		if err := b.AddDataset(fmt.Sprintf("pers-%03d", i), "pers", 1, 1, int64(1+i)); err != nil {
			tb.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

const (
	qPers1a = `//manager//employee/name`
	qPers4d = `//manager[.//manager//employee/name]/department/name`
)

func plannedOn(tb testing.TB, c *Corpus, src string) (*Pattern, *Plan) {
	tb.Helper()
	pat := MustParsePattern(src)
	opt, err := c.OptimizeContext(context.Background(), pat, MethodDPP, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return pat, opt.Plan
}

// TestResultPathAllocs is the allocation guard for the flat result path: a
// full Corpus.Run of Q.Pers.1.a — materialise, demux, gather and the
// []CorpusMatch view — allocates a number of objects that depends on the
// shard count and log(rows), not on the row count.
func TestResultPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	c := servingCorpus(t)
	pat, plan := plannedOn(t, c, qPers1a)
	rows := 0
	run := func() {
		res, err := c.Run(context.Background(), pat, plan, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows = len(res.Matches)
	}
	run() // pages resident
	perRow := testing.AllocsPerRun(10, run) / float64(rows)
	if rows < 50000 || perRow >= 0.01 {
		t.Fatalf("Corpus.Run allocates %.4f objects per row over %d rows, want < 0.01", perRow, rows)
	}
	t.Logf("Corpus.Run: %.4f allocs/row over %d rows", perRow, rows)
}

// BenchmarkCorpusResultPath is the scatter/gather/demux lane: what a full
// Corpus.Run costs per returned row beyond counting the same rows (ns/row),
// and what it allocates per row, the executor's own allocations included.
func BenchmarkCorpusResultPath(b *testing.B) {
	c := servingCorpus(b)
	for _, q := range []struct{ name, src string }{{"Q.Pers.1.a", qPers1a}, {"Q.Pers.4.d", qPers4d}} {
		b.Run(q.name, func(b *testing.B) {
			pat, plan := plannedOn(b, c, q.src)
			ctx := context.Background()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(ctx, pat, plan, QueryOptions{CountOnly: true}); err != nil {
					b.Fatal(err)
				}
			}
			counting := time.Since(t0)
			rows := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Run(ctx, pat, plan, QueryOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Matches)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(rows)
			b.ReportMetric(float64(b.Elapsed()-counting)/n, "ns/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/row")
		})
	}
}

// demuxPerMatch is the pre-range-split attribution, kept as the reference:
// look every match's root node up in the member table, copy and rebase it.
func demuxPerMatch(members []memberView, ms []Match) map[string][]Match {
	out := make(map[string][]Match)
	for _, m := range ms {
		mi := sort.Search(len(members), func(i int) bool { return members[i].span.First > m[0] }) - 1
		if mi < 0 || !members[mi].span.Contains(m[0]) {
			continue
		}
		local := make(Match, len(m))
		for i, id := range m {
			local[i] = id - members[mi].span.First
		}
		out[members[mi].id] = append(out[members[mi].id], local)
	}
	return out
}

// TestDemuxRangeSplit holds the range-split demux to the per-match
// attribution on a write-enabled shard whose node space has tombstoned gaps
// and re-appended members, with a member that matches nothing in the
// middle — and then holds Corpus.Run to the same reference under every
// limit, including the ones that end mid-document.
func TestDemuxRangeSplit(t *testing.T) {
	b := NewCorpusBuilder(&CorpusOptions{Shards: 1, ShardWALFile: func(int) PageFile { return NewMemPageFile() }})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	emp := func(names ...string) string {
		s := "<db>"
		for _, n := range names {
			s += "<emp><name>" + n + "</name></emp>"
		}
		return s + "</db>"
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.InsertString("a", emp("a1", "a2", "a3")))
	must(c.InsertString("b", emp("b1", "b2")))
	must(c.InsertString("c", emp("c1")))
	must(c.InsertString("none", `<db><other/></db>`))
	must(c.InsertString("e", emp("e1", "e2", "e3", "e4")))
	must(c.Delete("b"))                         // tombstone in the middle
	must(c.ReplaceString("a", emp("A1", "A2"))) // tombstone at the front, re-appended at the end
	must(c.InsertString("f", emp("f1")))
	must(c.ReplaceString("c", emp("C1", "C2", "C3")))

	sh := c.shards[0]
	sn := sh.meta().view()
	pat, plan := plannedOn(t, c, `//emp/name`)
	rr, err := sh.meta().runOn(context.Background(), sn, pat, plan, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	members := sn.members
	if len(members) != 5 || members[0].span.First == 0 {
		t.Fatalf("fixture lost its gaps: %+v", members)
	}
	raw := exec.MatchSet{Width: rr.set.Width, Nodes: append([]NodeID(nil), rr.set.Nodes...)}
	want := demuxPerMatch(members, raw.Tuples())
	ranges := demux(members, rr.set)
	for mi, mv := range members {
		var got []Match
		if r := ranges[mi]; r.hi > r.lo {
			got = rr.set.Slice(r.lo, r.hi).Tuples()
		}
		if !reflect.DeepEqual(got, want[mv.id]) {
			t.Fatalf("member %q: range split %v, per-match %v", mv.id, got, want[mv.id])
		}
	}
	if len(want["none"]) != 0 || len(want["a"]) != 2 || len(want["c"]) != 3 {
		t.Fatalf("reference attribution off: %v", want)
	}

	// Document order is insertion order (a, c, none, e, f), not the shard's
	// node order (none, e, a, f, c). The reference gathers the per-match
	// attribution of the shard's own limit-k output in document order.
	ids := c.DocIDs()
	for limit := 0; limit <= rr.Count+1; limit++ {
		lr, err := sh.meta().runOn(context.Background(), sn, pat, plan, QueryOptions{ExecOptions: ExecOptions{Limit: limit}})
		if err != nil {
			t.Fatal(err)
		}
		byDoc := demuxPerMatch(members, lr.set.Tuples())
		var exp []CorpusMatch
		for gi, id := range ids {
			for _, m := range byDoc[id] {
				if limit == 0 || len(exp) < limit {
					exp = append(exp, CorpusMatch{DocID: id, Doc: gi, Nodes: m})
				}
			}
		}
		res, err := c.Run(context.Background(), pat, plan, QueryOptions{ExecOptions: ExecOptions{Limit: limit}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != len(exp) || !sameCorpusMatches(res.Matches, exp) {
			t.Fatalf("limit %d: got %d matches %v, want %v", limit, res.Count, res.Matches, exp)
		}
		rows := 0
		for i := range res.Segments {
			if res.Segments[i].Len() == 0 {
				t.Fatalf("limit %d: empty segment for %q", limit, res.Segments[i].DocID)
			}
			rows += res.Segments[i].Len()
		}
		if rows != res.Count {
			t.Fatalf("limit %d: segments hold %d rows, count %d", limit, rows, res.Count)
		}
	}
}

// TestSegmentsPinSnapshot checks the lifetime rule of a corpus result: its
// segments keep describing the document version the query ran on after a
// Replace or Delete, while Corpus.TagName/Value move on to the current one.
func TestSegmentsPinSnapshot(t *testing.T) {
	b := NewCorpusBuilder(&CorpusOptions{Shards: 1, ShardWALFile: func(int) PageFile { return NewMemPageFile() }})
	if err := b.AddXMLString("d", `<db><pad/><emp><name>old</name></emp></db>`); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryContext(context.Background(), `//emp/name`, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].Len() != 1 {
		t.Fatalf("segments: %+v", res.Segments)
	}
	seg, name := &res.Segments[0], res.Segments[0].Row(0)[1]
	check := func(when string) {
		t.Helper()
		if seg.TagName(name) != "name" || seg.Value(name) != "old" {
			t.Fatalf("%s: segment reads %s=%q, want name=\"old\"", when, seg.TagName(name), seg.Value(name))
		}
	}
	check("before")
	if err := c.ReplaceString("d", `<db><boss><title>new</title><x/><y/></boss></db>`); err != nil {
		t.Fatal(err)
	}
	check("after Replace")
	if tag, _ := c.TagName("d", name); tag == "name" {
		t.Fatalf("Corpus.TagName still reads the replaced version")
	}
	if err := c.Delete("d"); err != nil {
		t.Fatal(err)
	}
	check("after Delete")
}
