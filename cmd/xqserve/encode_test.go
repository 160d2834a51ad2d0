package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"sjos"
)

// queryResponse is the /query JSON payload as encoding/json sees it: the
// shape tests decode into, and — encoded — the reference writeQueryBody must
// match byte for byte.
type queryResponse struct {
	Count   int        `json:"count"`
	Matches [][]string `json:"matches,omitempty"`
	Docs    []string   `json:"docs,omitempty"`
	queryTail
}

// referenceBody is the pre-streaming /query rendering: one fmt-formatted
// string per cell, labelled through the corpus, handed to encoding/json.
func referenceBody(t *testing.T, c *sjos.Corpus, res *sjos.CorpusQueryResult, rows bool) []byte {
	t.Helper()
	resp := &queryResponse{Count: res.Count, queryTail: queryTail{
		Plan:       res.PlanText,
		Cached:     res.CachedPlan,
		Algorithm:  res.Algorithm,
		OptimizeNs: res.OptimizeTime.Nanoseconds(),
		ExecuteNs:  res.ExecuteTime.Nanoseconds(),
		Shards:     res.ShardsQueried,
		Trace:      res.Trace,
	}}
	if rows {
		resp.Matches, resp.Docs = [][]string{}, []string{}
		for si := range res.Segments {
			seg := &res.Segments[si]
			for i := 0; i < seg.Len(); i++ {
				row := make([]string, 0, len(seg.Row(i)))
				for _, id := range seg.Row(i) {
					tag, _ := c.TagName(seg.DocID, id)
					if v, _ := c.Value(seg.DocID, id); v != "" {
						row = append(row, fmt.Sprintf("%s=%q", tag, v))
					} else {
						row = append(row, fmt.Sprintf("%s#%d", tag, id))
					}
				}
				resp.Matches = append(resp.Matches, row)
				resp.Docs = append(resp.Docs, seg.DocID)
			}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awkwardCorpus holds values and document IDs that exercise every escaping
// rule on the way to the wire: quotes, backslashes, HTML-sensitive bytes, a
// control byte, non-ASCII text, U+2028, and (in an ID) invalid UTF-8. Each
// document's items are repeated `repeat` times: once keeps every segment
// under the encoder's direct-render threshold, many times puts the same
// values through its memo.
func awkwardCorpus(t *testing.T, repeat int) *sjos.Corpus {
	t.Helper()
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 2})
	docs := []struct{ id, items string }{
		{`plain`, `<item><name>say "hi" \ back</name><tag/></item><item><name>a &lt; b &amp; c &gt; d</name><tag/></item>`},
		{"q\"uo<te>&\t", `<item><name>col1&#9;col2</name><tag/></item><item><name>naïve — 東京</name><tag/></item><item><name>x</name><tag/></item>`},
		{"sép\u2028\xff", `<item><name>line` + "\u2028" + `sep</name><tag/></item>`},
		{`empty`, `<other/>`},
		{`last`, `<item><name>'single' and \n literal</name><tag/></item><item><name>z</name><tag/></item>`},
	}
	for _, d := range docs {
		if err := b.AddXMLString(d.id, `<db>`+strings.Repeat(d.items, repeat)+`</db>`); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// memoized reports how many of res's segments are large enough for the
// encoder's memo, and how many render directly.
func memoized(res *sjos.CorpusQueryResult) (memo, direct int) {
	for si := range res.Segments {
		if seg := &res.Segments[si]; seg.Len() > 0 && seg.Len()*len(seg.Row(0)) >= memoMinCells {
			memo++
		} else if seg.Len() > 0 {
			direct++
		}
	}
	return memo, direct
}

// TestQueryBodyMatchesEncodingJSON is the golden differential: the streamed
// body equals the old encoding/json rendering byte for byte, with and
// without a limit (one ending mid-document), traced, and under count=1 — on
// segments small enough to render cell by cell and, the same values repeated,
// on segments that go through the memo.
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	ctx := context.Background()
	for _, repeat := range []int{1, 40} {
		c := awkwardCorpus(t, repeat)
		for _, tc := range []struct {
			name  string
			src   string
			limit int
			trace bool
			rows  bool
		}{
			{"full", `//item[tag]/name`, 0, false, true},
			{"root in every row", `//db//item/name`, 0, false, true},
			{"limit mid-document", `//item[tag]/name`, 4, false, true},
			{"limit 1", `//item/name`, 1, false, true},
			{"traced", `//item/name`, 0, true, true},
			{"count only", `//item/name`, 0, false, false},
			{"no rows", `//item/other`, 0, false, true},
		} {
			name := fmt.Sprintf("%s x%d", tc.name, repeat)
			opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, Limit: tc.limit, Trace: tc.trace}}
			res, err := c.QuerySegments(ctx, tc.src, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The two corpora must take the two render paths they are here for.
			if memo, direct := memoized(res); tc.limit == 0 && res.Count > 0 && (memo > 0) != (repeat > 1) {
				t.Fatalf("%s: %d memoized and %d direct segments", name, memo, direct)
			}
			var got bytes.Buffer
			if err := writeQueryBody(ctx, &got, res, tc.rows); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := referenceBody(t, c, res, tc.rows)
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s: body differs from encoding/json\n got: %s\nwant: %s", name, got.Bytes(), want)
			}
			if !tc.rows && (bytes.Contains(got.Bytes(), []byte(`"matches"`)) || bytes.Contains(got.Bytes(), []byte(`"docs"`))) {
				t.Fatalf("%s: count=1 body carries rows: %s", name, got.Bytes())
			}
			if !bytes.HasPrefix(got.Bytes(), []byte(fmt.Sprintf(`{"count":%d`, res.Count))) {
				t.Fatalf("%s: body does not lead with the count: %s", name, got.Bytes())
			}
		}
	}
}

// TestQueryBodyMemoResetsPerSegment renders two documents whose node numbers
// coincide and whose labels do not — node 3 is an employee in one and a
// manager's name in the other — with one node (the manager) recurring in
// thousands of rows: a memo that outlived its segment would label the second
// document with the first one's cells.
func TestQueryBodyMemoResetsPerSegment(t *testing.T) {
	staff := func(lead, boss string) string {
		var sb strings.Builder
		sb.WriteString(`<db>` + lead + `<manager><name>` + boss + `</name>`)
		for i := 0; i < 3000; i++ {
			fmt.Fprintf(&sb, `<employee><name>%s-%d</name></employee>`, boss, i)
		}
		sb.WriteString(`</manager></db>`)
		return sb.String()
	}
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 1})
	for id, xml := range map[string]string{"a": staff(``, `x "1"`), "b": staff(`<pad/>`, `y &lt;2&gt;`)} {
		if err := b.AddXMLString(id, xml); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := c.QuerySegments(ctx, `//manager[name]//employee/name`, sjos.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if memo, direct := memoized(res); res.Count != 6000 || memo != 2 || direct != 0 {
		t.Fatalf("%d rows in %d memoized and %d direct segments, want 6000 in 2 and 0", res.Count, memo, direct)
	}
	var got bytes.Buffer
	if err := writeQueryBody(ctx, &got, res, true); err != nil {
		t.Fatal(err)
	}
	if want := referenceBody(t, c, res, true); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("body differs from encoding/json: %d bytes, want %d", got.Len(), len(want))
	}
}

// TestQueryBodyRendersPinnedSnapshot is the regression test for rows
// labelled against the wrong document version: a Replace that commits
// between execute and render must not change (or blank) the cells.
func TestQueryBodyRendersPinnedSnapshot(t *testing.T) {
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 1, ShardWALFile: func(int) sjos.PageFile { return sjos.NewMemPageFile() }})
	if err := b.AddXMLString("d", `<db><pad/><pad/><emp><name>old-1</name></emp><emp><name>old-2</name></emp></db>`); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := c.QuerySegments(ctx, `//emp/name`, sjos.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := writeQueryBody(ctx, &before, res, true); err != nil {
		t.Fatal(err)
	}
	// The new version is smaller and tags the old node IDs differently.
	if err := c.ReplaceString("d", `<db><boss><title>new</title></boss></db>`); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := writeQueryBody(ctx, &after, res, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("render changed after Replace\nbefore: %s\n after: %s", before.Bytes(), after.Bytes())
	}
	for _, cell := range []string{`name=\"old-1\"`, `name=\"old-2\"`} {
		if !strings.Contains(after.String(), cell) {
			t.Fatalf("old version's cell %s missing: %s", cell, after.Bytes())
		}
	}
}

// TestQueryBodyConcurrentRenders shares one result (and the buffer pool)
// between concurrent requests: every render must still be the reference.
func TestQueryBodyConcurrentRenders(t *testing.T) {
	c := awkwardCorpus(t, 40) // segments large enough for the pooled memo
	res, err := c.QuerySegments(context.Background(), `//item[tag]/name`, sjos.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceBody(t, c, res, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var got bytes.Buffer
				if err := writeQueryBody(context.Background(), &got, res, true); err != nil || !bytes.Equal(got.Bytes(), want) {
					t.Errorf("concurrent render: err %v, body %s", err, got.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// cancelOnWrite is a writer that records the size of every write and
// cancels a context on the first one (a no-op cancel makes it a plain
// recorder).
type cancelOnWrite struct {
	writes []int
	cancel context.CancelFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	w.cancel()
	return len(p), nil
}

// quantaResult is a result whose body runs to many write quanta over four
// documents.
func quantaResult(t *testing.T) *sjos.CorpusQueryResult {
	t.Helper()
	res, err := benchCorpus(t, 4).QuerySegments(context.Background(), `//manager//employee/name`, sjos.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQueryBodyWritesInQuanta checks the write schedule of a body larger
// than the quantum: several writes, each of at least the quantum and at most
// the quantum plus the row that crossed it; the last carries what is left
// plus the response's tail.
func TestQueryBodyWritesInQuanta(t *testing.T) {
	w := &cancelOnWrite{cancel: func() {}}
	if err := writeQueryBody(context.Background(), w, quantaResult(t), true); err != nil {
		t.Fatal(err)
	}
	// A row of this query is three short cells; the tail carries the plan.
	const rowSlack, tailSlack = 256, 4096
	if len(w.writes) < 4 {
		t.Fatalf("body written in %d writes, want several quanta", len(w.writes))
	}
	last := len(w.writes) - 1
	for i, n := range w.writes[:last] {
		if n < encodeFlushAt || n > encodeFlushAt+rowSlack {
			t.Fatalf("write %d of %d is %d bytes, want the %d-byte quantum plus at most a row", i, len(w.writes), n, encodeFlushAt)
		}
	}
	if n := w.writes[last]; n > encodeFlushAt+tailSlack {
		t.Fatalf("last write is %d bytes, over the quantum by more than the tail", n)
	}
}

// TestQueryBodyStopsWhenClientLeaves checks that a cancelled request
// context ends the render with the write that was in flight instead of
// walking the remaining rows and documents.
func TestQueryBodyStopsWhenClientLeaves(t *testing.T) {
	res := quantaResult(t)
	ctx, cancel := context.WithCancel(context.Background())
	cut := &cancelOnWrite{cancel: cancel}
	if err := writeQueryBody(ctx, cut, res, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("render after cancel: err = %v, want context.Canceled", err)
	}
	if len(res.Segments) < 4 || len(cut.writes) != 1 {
		t.Fatalf("cancelled render made %d writes over %d segments, want 1", len(cut.writes), len(res.Segments))
	}
}

func benchCorpus(tb testing.TB, docs int) *sjos.Corpus {
	tb.Helper()
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 4})
	for i := 0; i < docs; i++ {
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

// BenchmarkServeQueryEncode is the xqserve encode lane: the streaming
// encoder alone, into io.Discard, on the bulk_results queries' results.
func BenchmarkServeQueryEncode(b *testing.B) {
	c := benchCorpus(b, 8)
	for _, q := range []struct{ name, src string }{
		{"Q.Pers.1.a", `//manager//employee/name`},
		{"Q.Pers.4.d", `//manager[.//manager//employee/name]/department/name`},
	} {
		b.Run(q.name, func(b *testing.B) {
			res, err := c.QuerySegments(context.Background(), q.src, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP}})
			if err != nil {
				b.Fatal(err)
			}
			var size countWriter
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				size = 0
				if err := writeQueryBody(context.Background(), &size, res, true); err != nil {
					b.Fatal(err)
				}
			}
			rows := float64(res.Count)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			b.ReportMetric(float64(size)/rows, "B/row")
		})
	}
}

// countWriter discards what it is given and counts the bytes.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) { *w += countWriter(len(p)); return len(p), nil }

var _ io.Writer = (*countWriter)(nil)
