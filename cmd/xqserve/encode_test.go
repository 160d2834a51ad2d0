package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
			res, err := c.QueryContext(ctx, tc.src, opts)
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
	res, err := c.QueryContext(ctx, `//manager[name]//employee/name`, sjos.QueryOptions{})
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
	res, err := c.QueryContext(ctx, `//emp/name`, sjos.QueryOptions{})
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

// withProcs runs fn with GOMAXPROCS set to n: 1 renders every body on the
// calling goroutine, 2 renders one of two chunks or more on two workers.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// chunksOf is how many render chunks res's "matches" section is cut into.
func chunksOf(res *sjos.CorpusQueryResult) int { return newMatchRows(res.Segments).chunks() }

// itemsXML is n <item> elements whose names cycle through awkward values
// (every escaping rule on the way to the wire), prefixed with p.
func itemsXML(p string, n int) string {
	names := []string{`say "hi" \ back`, `a &lt; b &amp; c &gt; d`, `col1&#9;col2`, `naïve — 東京`, "line\u2028sep", `'single' and \n literal`}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<item><name>%s %s-%d</name><tag/></item>`, names[i%len(names)], p, i%7)
	}
	return sb.String()
}

// hugeCorpus is one document of n items like itemsXML's, but every 2 000th
// name is ~420 KB of JSON — a row that is over a quantum by itself — and
// every 7th is ~1 KB, so a chunk's rows add up to many quanta.
func hugeCorpus(t *testing.T, n int) *sjos.Corpus {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`<db>`)
	for i := 0; i < n; i++ {
		pad := ""
		switch {
		case i%2000 == 1:
			pad = strings.Repeat(`a&lt;`, 60000)
		case i%7 == 0:
			pad = strings.Repeat(`"b"`, 300)
		}
		fmt.Fprintf(&sb, `<item><name>huge-%d %s</name><tag/></item>`, i, pad)
	}
	sb.WriteString(`</db>`)
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 1})
	if err := b.AddXMLString("huge", sb.String()); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestQueryBodyChunksMatchEncodingJSON holds results of four chunks or more
// to the encoding/json rendering, rendered serially (GOMAXPROCS 1) and on
// two workers (GOMAXPROCS 2): awkward values repeated through the memo, a
// limit that ends in the middle of a chunk, many small segments (each
// rendered directly) around one large one (rendered through the memo, its
// chunks split between the workers, chunks spanning segment boundaries), and
// values so large that a chunk is many quanta. Both renders must write in
// quanta (checkQuanta), and write alike.
func TestQueryBodyChunksMatchEncodingJSON(t *testing.T) {
	ctx := context.Background()
	awkward := awkwardCorpus(t, 2100)
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 3})
	for i := 0; i < 61; i++ {
		id, n := fmt.Sprintf("small-%02d", i), 1+i%3
		if i == 30 {
			id, n = "large", 12000
		}
		if err := b.AddXMLString(id, `<db>`+itemsXML(id, n)+`</db>`); err != nil {
			t.Fatal(err)
		}
	}
	mixed, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	perChunk := chunkCells / 3 // rows of //item[tag]/name in one chunk
	for _, tc := range []struct {
		name  string
		c     *sjos.Corpus
		src   string
		limit int
	}{
		{"awkward values", awkward, `//item[tag]/name`, 0},
		{"awkward values, two cells", awkward, `//item/name`, 0},
		{"awkward values, root in every row", awkward, `//db//item/name`, 0},
		{"limit mid-chunk", awkward, `//item[tag]/name`, 3*perChunk + perChunk/2},
		{"small segments around a large one", mixed, `//item[tag]/name`, 0},
		{"huge values", hugeCorpus(t, 4*perChunk+100), `//item[tag]/name`, 0},
	} {
		opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP, Limit: tc.limit}}
		res, err := tc.c.QueryContext(ctx, tc.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := chunksOf(res); n < 4 {
			t.Fatalf("%s: %d rows in %d chunks, want at least 4", tc.name, res.Count, n)
		}
		want := referenceBody(t, tc.c, res, true)
		var schedules [][]int
		for _, procs := range []int{1, 2} {
			w := &recordWrites{}
			withProcs(procs, func() { err = writeQueryBody(ctx, w, res, true) })
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS %d: %v", tc.name, procs, err)
			}
			if got := bytes.Join(w.writes, nil); !bytes.Equal(got, want) {
				t.Fatalf("%s, GOMAXPROCS %d: body differs from encoding/json: %d bytes, want %d", tc.name, procs, len(got), len(want))
			}
			schedules = append(schedules, checkQuanta(t, fmt.Sprintf("%s, GOMAXPROCS %d", tc.name, procs), w.writes))
		}
		if !slices.Equal(schedules[0], schedules[1]) {
			t.Fatalf("%s: serial and parallel renders write differently:\n%v\n%v", tc.name, schedules[0], schedules[1])
		}
	}
}

// TestQueryBodyPartsAreBounded takes every part two render workers hand over
// for a result whose chunks are many quanta each: a part holds rows up to
// the one that completes a quantum, so a render buffers a few quanta and a
// few rows however large the cells, and the parts in order are the
// "matches" section.
func TestQueryBodyPartsAreBounded(t *testing.T) {
	c := hugeCorpus(t, 3*(chunkCells/3)) // three chunks of //item[tag]/name
	res, err := c.QueryContext(context.Background(), `//item[tag]/name`, sjos.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := newMatchRows(res.Segments)
	r := startRenderers(m, 2)
	defer r.close()
	var got []byte
	taken := 0
	for j := 0; j < m.chunks(); taken++ {
		p := r.take(j)
		if p.last {
			j++
		}
		if len(p.ends) == 0 || p.ends[len(p.ends)-1] != len(p.buf) {
			t.Fatalf("part %d: %d bytes, rows ending at %v", taken, len(p.buf), p.ends)
		}
		if n := len(p.ends); n > 1 && p.ends[n-2] >= encodeFlushAt {
			t.Fatalf("part %d: %d rows past the quantum before its last one", taken, n)
		}
		got = append(got, p.buf...)
		putPart(p)
	}
	if taken < 4*m.chunks() {
		t.Fatalf("%d chunks came in %d parts, want a chunk of this result to take several", m.chunks(), taken)
	}
	body := referenceBody(t, c, res, true)
	if want := body[bytes.Index(body, []byte(`"matches":[`))+len(`"matches":[`) : bytes.Index(body, []byte(`],"docs":`))]; !bytes.Equal(got, want) {
		t.Fatalf("parts add up to %d bytes, want the %d of \"matches\"", len(got), len(want))
	}
}

// TestQueryBodyConcurrentRenders shares one result (and the buffer pools)
// between concurrent requests, on a result the memo renders serially and on
// one of several chunks rendered in parallel: every render must still be the
// reference. Under -race it catches a pooled buffer handed out while a
// render still fills it.
func TestQueryBodyConcurrentRenders(t *testing.T) {
	for _, tc := range []struct{ repeat, renders int }{{40, 50}, {2100, 4}} {
		c := awkwardCorpus(t, tc.repeat)
		res, err := c.QueryContext(context.Background(), `//item[tag]/name`, sjos.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceBody(t, c, res, true)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < tc.renders; i++ {
					var got bytes.Buffer
					if err := writeQueryBody(context.Background(), &got, res, true); err != nil || !bytes.Equal(got.Bytes(), want) {
						t.Errorf("concurrent render of %d chunks: err %v, %d bytes, want %d", chunksOf(res), err, got.Len(), len(want))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// recordWrites is a writer that keeps a copy of every write, cancels a
// context on the first one (if cancel is set) and fails the one numbered
// failAt (from 1; 0 never fails).
type recordWrites struct {
	writes [][]byte
	cancel context.CancelFunc
	failAt int
}

var errWriteFailed = errors.New("write failed")

func (w *recordWrites) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	if w.cancel != nil {
		w.cancel()
	}
	if len(w.writes) == w.failAt {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// quantaResult is a result whose body runs to many write quanta over four
// documents.
func quantaResult(t *testing.T) *sjos.CorpusQueryResult {
	t.Helper()
	res, err := benchCorpus(t, 4).QueryContext(context.Background(), `//manager//employee/name`, sjos.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkQuanta checks the write schedule of a body and returns the sizes of
// its writes. Every write but the last is at least the quantum, and at most
// the quantum plus the row ("matches") or the entry ("docs") that completed
// it — and the `],"docs":` between the two; the last carries what is left
// plus the response's tail.
func checkQuanta(t *testing.T, name string, writes [][]byte) []int {
	t.Helper()
	body := bytes.Join(writes, nil)
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// The longest row or entry, with the comma that leads it.
	longest := 0
	for i, row := range resp.Matches {
		r, _ := json.Marshal(row)
		d, _ := json.Marshal(resp.Docs[i])
		longest = max(longest, len(r)+1, len(d)+1)
	}
	longest += len(`],"docs":`)
	// The tail follows the "docs" array's `]`, and ends in a newline.
	tail, _ := json.Marshal(resp.queryTail)
	var sizes []int
	for i, p := range writes {
		sizes = append(sizes, len(p))
		switch {
		case i == len(writes)-1:
			if len(p) >= encodeFlushAt+len(tail)+2 {
				t.Fatalf("%s: last write is %d bytes, over the quantum by more than the %d-byte tail", name, len(p), len(tail))
			}
		case len(p) < encodeFlushAt || len(p) >= encodeFlushAt+longest:
			t.Fatalf("%s: write %d of %d is %d bytes, want the %d-byte quantum and less than %d bytes (a row) past it",
				name, i, len(writes), len(p), encodeFlushAt, longest)
		}
	}
	return sizes
}

// TestQueryBodyWritesInQuanta checks the write schedule of a body of many
// quanta and chunks, serial and parallel alike: the body is written after
// the row or "docs" entry that completes a quantum, whichever goroutines
// rendered the rows, so the two renders write the same sizes.
func TestQueryBodyWritesInQuanta(t *testing.T) {
	res := quantaResult(t)
	var schedules [][]int
	for _, procs := range []int{1, 2} {
		w := &recordWrites{}
		var err error
		withProcs(procs, func() { err = writeQueryBody(context.Background(), w, res, true) })
		if err != nil {
			t.Fatal(err)
		}
		if len(w.writes) < 8 || chunksOf(res) < 4 {
			t.Fatalf("GOMAXPROCS %d: %d chunks written in %d writes, want many of each", procs, chunksOf(res), len(w.writes))
		}
		schedules = append(schedules, checkQuanta(t, fmt.Sprintf("GOMAXPROCS %d", procs), w.writes))
	}
	if !slices.Equal(schedules[0], schedules[1]) {
		t.Fatalf("serial and parallel renders write differently:\n%v\n%v", schedules[0], schedules[1])
	}
}

// TestQueryBodyStopsWhenClientLeaves checks that a cancelled request
// context ends the render with the write that was in flight instead of
// walking the remaining rows and documents.
func TestQueryBodyStopsWhenClientLeaves(t *testing.T) {
	res := quantaResult(t)
	ctx, cancel := context.WithCancel(context.Background())
	cut := &recordWrites{cancel: cancel}
	if err := writeQueryBody(ctx, cut, res, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("render after cancel: err = %v, want context.Canceled", err)
	}
	if len(res.Segments) < 4 || len(cut.writes) != 1 {
		t.Fatalf("cancelled render made %d writes over %d segments, want 1", len(cut.writes), len(res.Segments))
	}
}

// TestQueryBodyStopsItsWorkers ends a parallel render early — a client that
// leaves after the first write, a writer that fails its third — and checks
// that writeQueryBody returns the error, writes nothing after it, and leaves
// no render goroutine running.
func TestQueryBodyStopsItsWorkers(t *testing.T) {
	res := quantaResult(t)
	if n := chunksOf(res); n < 8 {
		t.Fatalf("%d chunks, want a render that runs well past three writes", n)
	}
	for _, tc := range []struct {
		name   string
		cancel bool
		failAt int
		want   error
		writes int
	}{
		{"client leaves after the first write", true, 0, context.Canceled, 1},
		{"third write fails", false, 3, errWriteFailed, 3},
	} {
		withProcs(2, func() {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &recordWrites{failAt: tc.failAt}
			if tc.cancel {
				w.cancel = cancel
			}
			if err := writeQueryBody(ctx, w, res, true); !errors.Is(err, tc.want) {
				t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
			if len(w.writes) != tc.writes {
				t.Fatalf("%s: %d writes, want %d", tc.name, len(w.writes), tc.writes)
			}
			// The workers have been waited for; a goroutine past its last
			// deferred call may still be on its way out.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d goroutines after the render, %d before", tc.name, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		})
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
			res, err := c.QueryContext(context.Background(), q.src, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodDPP}})
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
