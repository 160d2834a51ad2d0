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
// control byte, non-ASCII text, U+2028, and (in an ID) invalid UTF-8.
func awkwardCorpus(t *testing.T) *sjos.Corpus {
	t.Helper()
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 2})
	docs := []struct{ id, xml string }{
		{`plain`, `<db><item><name>say "hi" \ back</name><tag/></item><item><name>a &lt; b &amp; c &gt; d</name><tag/></item></db>`},
		{"q\"uo<te>&\t", `<db><item><name>col1&#9;col2</name><tag/></item><item><name>naïve — 東京</name><tag/></item><item><name>x</name><tag/></item></db>`},
		{"sép \xff", `<db><item><name>line` + " " + `sep</name><tag/></item></db>`},
		{`empty`, `<db><other/></db>`},
		{`last`, `<db><item><name>'single' and \n literal</name><tag/></item><item><name>z</name><tag/></item></db>`},
	}
	for _, d := range docs {
		if err := b.AddXMLString(d.id, d.xml); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryBodyMatchesEncodingJSON is the golden differential: the streamed
// body equals the old encoding/json rendering byte for byte, with and
// without a limit (one ending mid-document), traced, and under count=1.
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	c := awkwardCorpus(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		src   string
		limit int
		trace bool
		rows  bool
	}{
		{"full", `//item[tag]/name`, 0, false, true},
		{"limit mid-document", `//item[tag]/name`, 4, false, true},
		{"limit 1", `//item/name`, 1, false, true},
		{"traced", `//item/name`, 0, true, true},
		{"count only", `//item/name`, 0, false, false},
		{"no rows", `//item/other`, 0, false, true},
	} {
		opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, Limit: tc.limit, Trace: tc.trace}}
		res, err := c.QuerySegments(ctx, tc.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got bytes.Buffer
		if err := writeQueryBody(ctx, &got, res, tc.rows); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := referenceBody(t, c, res, tc.rows)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: body differs from encoding/json\n got: %s\nwant: %s", tc.name, got.Bytes(), want)
		}
		if !tc.rows && (bytes.Contains(got.Bytes(), []byte(`"matches"`)) || bytes.Contains(got.Bytes(), []byte(`"docs"`))) {
			t.Fatalf("%s: count=1 body carries rows: %s", tc.name, got.Bytes())
		}
		if !bytes.HasPrefix(got.Bytes(), []byte(fmt.Sprintf(`{"count":%d`, res.Count))) {
			t.Fatalf("%s: body does not lead with the count: %s", tc.name, got.Bytes())
		}
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
	c := awkwardCorpus(t)
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

// cancelOnWrite is a writer that counts writes and cancels a context on
// the first one (a no-op cancel makes it a plain counter).
type cancelOnWrite struct {
	writes int
	cancel context.CancelFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	w.writes++
	w.cancel()
	return len(p), nil
}

// TestQueryBodyStopsWhenClientLeaves checks that a cancelled request
// context ends the render at the next segment boundary instead of walking
// the remaining documents.
func TestQueryBodyStopsWhenClientLeaves(t *testing.T) {
	c := benchCorpus(t, 4)
	res, err := c.QuerySegments(context.Background(), `//manager//employee/name`, sjos.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := &cancelOnWrite{cancel: func() {}}
	if err := writeQueryBody(context.Background(), full, res, true); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cut := &cancelOnWrite{cancel: cancel}
	if err := writeQueryBody(ctx, cut, res, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("render after cancel: err = %v, want context.Canceled", err)
	}
	if len(res.Segments) < 4 || cut.writes*2 > full.writes {
		t.Fatalf("cancelled render made %d of %d writes over %d segments", cut.writes, full.writes, len(res.Segments))
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
