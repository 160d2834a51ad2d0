package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sjos"
	"sjos/internal/datagen"
	"sjos/internal/xmltree"
)

// oneDocCorpus builds the read-only single-document collection `xqserve
// -xml` serves.
func oneDocCorpus(t *testing.T, id, src string, opts sjos.CorpusOptions) *sjos.Corpus {
	t.Helper()
	b := sjos.NewCorpusBuilder(&opts)
	if err := b.AddXMLString(id, src); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newServer(t *testing.T) (*sjos.Corpus, *httptest.Server) {
	t.Helper()
	c := oneDocCorpus(t, "staff.xml", `<db>
	  <manager><name>alice</name><employee><name>bob</name></employee></manager>
	  <manager><name>carol</name><department><name>ops</name></department></manager>
	</db>`, sjos.CorpusOptions{})
	cols := &collections{}
	cols.add("default", c)
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
	t.Cleanup(srv.Close)
	return c, srv
}

// newMultiServer serves two collections, the first of them multi-document.
func newMultiServer(t *testing.T) *httptest.Server {
	t.Helper()
	build := func(ids, srcs []string) *sjos.Corpus {
		b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 2})
		for i, id := range ids {
			if err := b.AddXMLString(id, srcs[i]); err != nil {
				t.Fatal(err)
			}
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cols := &collections{}
	cols.add("staff", build([]string{"east", "west"}, []string{
		`<db><manager><name>alice</name></manager></db>`,
		`<db><manager><name>bob</name></manager><manager><name>eve</name></manager></db>`,
	}))
	cols.add("papers", build([]string{"p1"}, []string{
		`<db><article><title>joins</title></article></db>`,
	}))
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestServeHealthz(t *testing.T) {
	_, srv := newServer(t)
	var h healthResponse
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz status %q", h.Status)
	}
	shards, ok := h.Collections["default"]
	if !ok || len(shards) != 1 {
		t.Fatalf("healthz collections: %+v", h.Collections)
	}
	if shards[0].Docs != 1 || shards[0].Nodes == 0 {
		t.Fatalf("shard health: %+v", shards[0])
	}
}

func TestServeQuery(t *testing.T) {
	_, srv := newServer(t)
	var r queryResponse
	getJSON(t, srv.URL+"/query?q=//manager/name", &r)
	if r.Count != 2 || len(r.Matches) != 2 {
		t.Fatalf("response: %+v", r)
	}
	if r.Plan == "" || r.Trace != nil {
		t.Fatalf("plan/trace: %+v", r)
	}
	if r.Shards != 1 || len(r.Docs) != 2 || r.Docs[0] != "staff.xml" {
		t.Fatalf("corpus attribution: %+v", r)
	}
	found := false
	for _, row := range r.Matches {
		for _, cell := range row {
			if strings.Contains(cell, "alice") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("alice missing from matches: %+v", r.Matches)
	}
}

// TestServeQueryAlgorithm: the response names the algorithm that produced
// the plan — the server's default, or the one the request asked for, which
// is planned and cached apart from it; the body still starts {"count":N.
func TestServeQueryAlgorithm(t *testing.T) {
	c := oneDocCorpus(t, "staff.xml", `<db><manager><name>alice</name><employee><name>bob</name></employee></manager></db>`, sjos.CorpusOptions{})
	cols := &collections{}
	cols.add("default", c)
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPAPEB))
	t.Cleanup(srv.Close)
	url := srv.URL + "/query?q=//manager[name]/employee/name"

	var r queryResponse
	getJSON(t, url, &r)
	if r.Count != 1 || r.Cached || r.Algorithm != "DPAP-EB" {
		t.Fatalf("default method: %+v", r)
	}
	getJSON(t, url+"&method=DPP", &r)
	if r.Count != 1 || r.Cached || r.Algorithm != "DPP" {
		t.Fatalf("explicit method: %+v", r)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, []byte(`{"count":1,`)) || !bytes.Contains(body, []byte(`"cached_plan":true,"algorithm":"DPAP-EB",`)) {
		t.Fatalf("body: %s", body)
	}
}

func TestServeQueryOptions(t *testing.T) {
	_, srv := newServer(t)
	var r queryResponse
	getJSON(t, srv.URL+"/query?q=//manager/name&count=1&trace=1&method=FP", &r)
	if r.Count != 2 || r.Matches != nil {
		t.Fatalf("count=1 response: %+v", r)
	}
	if r.Trace == nil || r.Trace.Rows != 2 {
		t.Fatalf("trace=1 response trace: %+v", r.Trace)
	}
	getJSON(t, srv.URL+"/query?q=//manager/name&limit=1", &r)
	if len(r.Matches) != 1 {
		t.Fatalf("limit=1 matches: %+v", r.Matches)
	}
}

// TestServeTraceWhenNoShardRuns: trace=1 on a query no shard can answer
// still carries the plan-shaped trace, with zero actuals.
func TestServeTraceWhenNoShardRuns(t *testing.T) {
	_, srv := newServer(t)
	for _, q := range []string{`//department[name="nope"]`, `//nosuchtag`} {
		resp, err := http.Get(srv.URL + "/query?trace=1&q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var r queryResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s: %v in %s", q, err, body)
		}
		if r.Count != 0 || !bytes.Contains(body, []byte(`"trace":{"op":`)) || r.Trace == nil || r.Trace.Rows != 0 {
			t.Fatalf("%s: trace=1 body %s", q, body)
		}
	}
}

func TestServeQueryErrors(t *testing.T) {
	_, srv := newServer(t)
	for path, want := range map[string]int{
		"/query":                        http.StatusBadRequest,
		"/query?q=///bad[":              http.StatusBadRequest,
		"/query?q=//a&method=BOGUS":     http.StatusBadRequest,
		"/query?q=//a&limit=-1":         http.StatusBadRequest,
		"/collections/nope/query?q=//a": http.StatusNotFound,
		"/collections/nope/metrics":     http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestQueryErrorMapping is the status table of a failed /query: whose fault
// the error is decides the class, and a request whose client has gone gets
// no response at all.
func TestQueryErrorMapping(t *testing.T) {
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		err  error
		want int // 0 = nothing written
	}{
		{"overloaded", context.Background(), sjos.ErrOverloaded, http.StatusServiceUnavailable},
		{"draining", context.Background(), fmt.Errorf("wrapped: %w", sjos.ErrShuttingDown), http.StatusServiceUnavailable},
		{"recovered panic", context.Background(), fmt.Errorf("sjos: executing DPP plan on corpus: %w", &sjos.PanicError{Value: "boom"}), http.StatusInternalServerError},
		{"corrupt page", context.Background(), fmt.Errorf("scan: %w", &sjos.CorruptPageError{Page: 3, Tag: "checksum"}), http.StatusInternalServerError},
		{"poisoned write path", context.Background(), fmt.Errorf("shard 1: %w", sjos.ErrBroken), http.StatusInternalServerError},
		{"bad pattern", context.Background(), errors.New("pattern: unexpected ["), http.StatusBadRequest},
		{"client gone", gone, context.Canceled, 0},
		{"client gone mid-shed", gone, sjos.ErrOverloaded, 0},
	} {
		rec := httptest.NewRecorder()
		writeQueryError(rec, httptest.NewRequest("GET", "/query?q=//a", nil).WithContext(tc.ctx), tc.err)
		switch {
		case tc.want == 0:
			if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
				t.Errorf("%s: wrote %d bytes, headers %v; want nothing", tc.name, rec.Body.Len(), rec.Header())
			}
		case rec.Code != tc.want:
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		case tc.want == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "":
			t.Errorf("%s: 503 without Retry-After", tc.name)
		}
	}
}

func TestServeCollections(t *testing.T) {
	srv := newMultiServer(t)
	var infos []collectionInfo
	getJSON(t, srv.URL+"/collections", &infos)
	if len(infos) != 2 || infos[0].Name != "staff" || infos[1].Name != "papers" {
		t.Fatalf("collections: %+v", infos)
	}
	if infos[0].Docs != 2 || infos[0].Shards != 2 || infos[0].Nodes == 0 {
		t.Fatalf("staff info: %+v", infos[0])
	}

	// Named query: results grouped by document in insertion order, with
	// document attribution.
	var r queryResponse
	getJSON(t, srv.URL+"/collections/staff/query?q=//manager/name", &r)
	if r.Count != 3 || len(r.Matches) != 3 || len(r.Docs) != 3 {
		t.Fatalf("staff query: %+v", r)
	}
	if r.Docs[0] != "east" || r.Docs[1] != "west" || r.Docs[2] != "west" {
		t.Fatalf("document order: %v", r.Docs)
	}

	// The other collection answers independently.
	getJSON(t, srv.URL+"/collections/papers/query?q=//article/title", &r)
	if r.Count != 1 || r.Docs[0] != "p1" {
		t.Fatalf("papers query: %+v", r)
	}

	// Per-collection metrics and healthz cover both.
	resp, err := http.Get(srv.URL + "/collections/staff/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "sjos_queries_total") {
		t.Fatalf("staff metrics: %s", body)
	}
	var h healthResponse
	getJSON(t, srv.URL+"/healthz", &h)
	// Both collections were built with 2 shards; papers' single document
	// leaves one of its shards empty but still reported.
	if len(h.Collections["staff"]) != 2 || len(h.Collections["papers"]) != 2 {
		t.Fatalf("healthz: %+v", h.Collections)
	}
	var paperDocs int
	for _, sh := range h.Collections["papers"] {
		paperDocs += sh.Docs
	}
	if paperDocs != 1 {
		t.Fatalf("papers healthz docs = %d, want 1", paperDocs)
	}
}

func TestServeMetrics(t *testing.T) {
	_, srv := newServer(t)
	// One response with rows and one without: both count their bytes, only
	// the first its rows.
	sent := 0
	var r queryResponse
	for _, q := range []string{"/query?q=//manager/name", "/query?q=//manager/name&count=1"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || json.Unmarshal(body, &r) != nil {
			t.Fatalf("GET %s: %v: %s", q, err, body)
		}
		sent += len(body)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"sjos_queries_total 2", "sjos_plancache_misses_total 1", "sjos_pool_resident_pages",
		fmt.Sprintf("sjos_query_rows_total %d\n", r.Count),
		fmt.Sprintf("sjos_query_response_bytes_total %d\n", sent),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

func TestServeSlow(t *testing.T) {
	c, srv := newServer(t)
	c.SetSlowQueryLog(time.Nanosecond, nil)
	var r queryResponse
	getJSON(t, srv.URL+"/query?q=//manager/name", &r)
	var entries []sjos.SlowQueryEntry
	getJSON(t, srv.URL+"/slow", &entries)
	if len(entries) != 1 {
		t.Fatalf("%d slow entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Fingerprint == "" || e.Matches != 2 || e.Trace == nil {
		t.Fatalf("slow entry: %+v", e)
	}
}

// TestServeShedsLoad: admission errors surface as 503 + Retry-After, not 400.
func TestServeShedsLoad(t *testing.T) {
	c := oneDocCorpus(t, "solo", `<db><manager><name>alice</name></manager></db>`, sjos.CorpusOptions{MaxInFlight: 1})
	cols := &collections{}
	cols.add("default", c)
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
	t.Cleanup(srv.Close)
	// Draining with nothing in flight completes instantly and flips every
	// later arrival into the shed path.
	if err := c.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/query?q=//manager/name")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestBuildCollectionsSpecErrors(t *testing.T) {
	for _, spec := range []string{"noequals", "=pers", "a=pers:0", "a=pers:x"} {
		if _, err := buildCollections(spec, "", "", 1, 0, 1, 1, 0, 0, writeConfig{}); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if _, err := buildCollections("", "", "", 1, 0, 1, 1, 0, 0, writeConfig{}); err == nil {
		t.Error("empty read-only source accepted")
	}
	// A writable server may start with no source at all: it serves an empty
	// default collection that is populated over HTTP.
	cols, err := buildCollections("", "", "", 1, 0, 1, 1, 0, 0, writeConfig{enabled: true})
	if err != nil {
		t.Fatalf("empty writable source rejected: %v", err)
	}
	if c := cols.def(); c.NumDocs() != 0 || !c.IngestEnabled() {
		t.Fatalf("empty writable collection: docs=%d ingest=%v", c.NumDocs(), c.IngestEnabled())
	}
}

// TestBuildCollectionsRejectsNoReplicas: a collection needs at least one
// store copy per shard.
func TestBuildCollectionsRejectsNoReplicas(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := buildCollections("", "", "pers", 1, 0, n, 1, 0, 0, writeConfig{}); err == nil {
			t.Errorf("-replicas %d accepted", n)
		}
	}
}

// do issues a bodyless or XML-bodied request and returns the response,
// decoding JSON into v when v is non-nil and the status is 200.
func do(t *testing.T, method, url, body string, v any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// endless is a reader of one byte, for ever.
type endless byte

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e)
	}
	return len(p), nil
}

// newWritableServer serves one empty writable collection over in-memory WALs.
func newWritableServer(t *testing.T) *httptest.Server {
	t.Helper()
	cols, err := buildCollections("", "", "", 1, 2, 1, 1, 0, 0, writeConfig{enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
	t.Cleanup(srv.Close)
	return srv
}

// TestServeWrites drives the full write surface over HTTP: insert and
// replace via PUT, DELETE, /ingest introspection, and the query path
// observing every mutation.
func TestServeWrites(t *testing.T) {
	srv := newWritableServer(t)
	var wr writeResponse
	if resp := do(t, "PUT", srv.URL+"/docs/a", `<db><manager><name>alice</name></manager></db>`, &wr); resp.StatusCode != 200 {
		t.Fatalf("PUT a: status %d", resp.StatusCode)
	}
	if wr.Op != "insert" || wr.Docs != 1 {
		t.Fatalf("PUT a response: %+v", wr)
	}
	do(t, "PUT", srv.URL+"/docs/b", `<db><manager><name>bob</name></manager></db>`, &wr)

	var qr queryResponse
	getJSON(t, srv.URL+"/query?q=//manager/name", &qr)
	if qr.Count != 2 {
		t.Fatalf("after 2 inserts: count %d, want 2", qr.Count)
	}

	// PUT on an existing ID is a replace.
	if resp := do(t, "PUT", srv.URL+"/docs/a", `<db><manager><name>ann</name></manager><manager><name>al</name></manager></db>`, &wr); resp.StatusCode != 200 {
		t.Fatalf("PUT a (replace): status %d", resp.StatusCode)
	}
	if wr.Op != "replace" || wr.Docs != 2 {
		t.Fatalf("replace response: %+v", wr)
	}
	getJSON(t, srv.URL+"/query?q=//manager/name", &qr)
	if qr.Count != 3 {
		t.Fatalf("after replace: count %d, want 3", qr.Count)
	}

	if resp := do(t, "DELETE", srv.URL+"/docs/b", "", &wr); resp.StatusCode != 200 {
		t.Fatalf("DELETE b: status %d", resp.StatusCode)
	}
	if wr.Op != "delete" || wr.Docs != 1 {
		t.Fatalf("delete response: %+v", wr)
	}
	getJSON(t, srv.URL+"/query?q=//manager/name", &qr)
	if qr.Count != 2 {
		t.Fatalf("after delete: count %d, want 2", qr.Count)
	}

	var ist sjos.CorpusIngestStats
	getJSON(t, srv.URL+"/ingest", &ist)
	if ist.Docs != 1 || ist.WALPages == 0 || ist.BrokenShards != 0 {
		t.Fatalf("/ingest: %+v", ist)
	}
}

// TestServeCountOnlyMatchesRows holds count=1, which counts on the shards
// instead of gathering rows, to the row path on a writable 3-shard corpus:
// after an insert, a replace and a delete (whose tombstoned segments the
// count must not see), for the benchmark's query shapes, with and without a
// limit.
func TestServeCountOnlyMatchesRows(t *testing.T) {
	cols, err := buildCollections("", "", "pers", 4, 3, 1, 1, 0, 0, writeConfig{enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPAPEB))
	t.Cleanup(srv.Close)
	pers := func(seed int64) string {
		xml, err := xmltree.SerializeString(datagen.Pers(1, seed))
		if err != nil {
			t.Fatal(err)
		}
		return xml
	}
	queries := []string{
		`//manager//employee/name`,
		`//manager[department/name]//employee/name`,
		`//manager[.//manager//employee/name]/department/name`,
		`//employee[salary>118000]/name`,
		`//manager/name`,
		`//manager[name][employee[name][salary>110000]][department[name]]//manager[name][employee[name]]/department`,
	}
	for _, w := range []struct{ method, id, body string }{
		{"PUT", "extra", pers(9)},
		{"PUT", "pers-000", pers(10)},
		{"DELETE", "pers-001", ""},
	} {
		if resp := do(t, w.method, srv.URL+"/docs/"+w.id, w.body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", w.method, w.id, resp.StatusCode)
		}
		for _, q := range queries {
			for _, limit := range []int{0, 10, 1000} {
				u := fmt.Sprintf("%s/query?q=%s&limit=%d", srv.URL, url.QueryEscape(q), limit)
				var full struct {
					Count   int               `json:"count"`
					Matches []json.RawMessage `json:"matches"`
				}
				var counted queryResponse
				getJSON(t, u, &full)
				getJSON(t, u+"&count=1", &counted)
				if counted.Count != full.Count || len(full.Matches) != full.Count || counted.Matches != nil {
					t.Fatalf("after %s %s, %s limit %d: count=1 says %d (%d rows), the rows say %d (%d rows)",
						w.method, w.id, q, limit, counted.Count, len(counted.Matches), full.Count, len(full.Matches))
				}
			}
		}
	}
	// In-process, count-only leaves the rows out of the result.
	res, err := cols.def().QueryContext(context.Background(), queries[0], sjos.QueryOptions{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 || res.Segments != nil {
		t.Fatalf("count-only result: count %d, %d segments", res.Count, len(res.Segments))
	}
}

// TestServeWriteErrors checks the HTTP mapping of write-path failures.
func TestServeWriteErrors(t *testing.T) {
	srv := newWritableServer(t)
	// Bad XML is the client's fault.
	if resp := do(t, "PUT", srv.URL+"/docs/x", `<open>`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad XML: status %d, want 400", resp.StatusCode)
	}
	// Deleting a document that never existed is 404.
	if resp := do(t, "DELETE", srv.URL+"/docs/ghost", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE ghost: status %d, want 404", resp.StatusCode)
	}
	// A body past the limit is refused as too large, not read to its end:
	// this one would be well-formed if it ever got there.
	huge := io.MultiReader(strings.NewReader("<r>"), io.LimitReader(endless('x'), maxDocBytes), strings.NewReader("</r>"))
	req, err := http.NewRequest("PUT", srv.URL+"/docs/huge", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: status %d, want 413", resp.StatusCode)
	}
	if resp := do(t, "DELETE", srv.URL+"/docs/huge", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oversized PUT left a document behind: DELETE status %d", resp.StatusCode)
	}

	// A read-only collection refuses the method entirely.
	cols := &collections{}
	cols.add("default", oneDocCorpus(t, "ro", `<db><a/></db>`, sjos.CorpusOptions{}))
	ro := httptest.NewServer(newMux(cols, sjos.MethodDPP))
	t.Cleanup(ro.Close)
	if resp := do(t, "PUT", ro.URL+"/docs/x", `<db><a/></db>`, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("read-only PUT: status %d, want 405", resp.StatusCode)
	}
}

// TestServeXMLWritable: `-xml f.xml -writable` serves the file from a real
// write path — a document PUT beside it is matched by the very next query,
// rows from both documents in one result.
func TestServeXMLWritable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.xml")
	if err := os.WriteFile(path, []byte(`<r><x/></r>`), 0o644); err != nil {
		t.Fatal(err)
	}
	cols, err := buildCollections("", path, "", 1, 0, 1, 1, 0, 0, writeConfig{enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
	t.Cleanup(srv.Close)
	if resp := do(t, "PUT", srv.URL+"/docs/b", `<r><x/><x/></r>`, nil); resp.StatusCode != 200 {
		t.Fatalf("PUT beside -xml document: status %d", resp.StatusCode)
	}
	var qr queryResponse
	getJSON(t, srv.URL+"/query?q=//r/x", &qr)
	if qr.Count != 3 || len(qr.Docs) != 3 || qr.Docs[0] != path || qr.Docs[2] != "b" {
		t.Fatalf("after PUT: %+v, want 1 match in the -xml document and 2 in b", qr)
	}
}

// TestServeWriteRecovery round-trips durable WALs through a server restart:
// documents PUT into the first server are served by a second one built over
// the same -waldir.
func TestServeWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	wr := writeConfig{enabled: true, dir: dir}
	boot := func() *httptest.Server {
		cols, err := buildCollections("", "", "", 1, 2, 1, 1, 0, 0, wr)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
		t.Cleanup(srv.Close)
		return srv
	}
	srv := boot()
	do(t, "PUT", srv.URL+"/docs/a", `<db><manager><name>alice</name></manager></db>`, nil)
	do(t, "PUT", srv.URL+"/docs/b", `<db><manager><name>bob</name></manager></db>`, nil)
	do(t, "DELETE", srv.URL+"/docs/a", "", nil)
	srv.Close()

	srv2 := boot()
	var qr queryResponse
	getJSON(t, srv2.URL+"/query?q=//manager/name", &qr)
	if qr.Count != 1 || len(qr.Docs) != 1 || qr.Docs[0] != "b" {
		t.Fatalf("after recovery: %+v", qr)
	}
	// The recovered server keeps accepting writes.
	if resp := do(t, "PUT", srv2.URL+"/docs/c", `<db><manager><name>carol</name></manager></db>`, nil); resp.StatusCode != 200 {
		t.Fatalf("post-recovery PUT: status %d", resp.StatusCode)
	}
	getJSON(t, srv2.URL+"/query?q=//manager/name", &qr)
	if qr.Count != 2 {
		t.Fatalf("post-recovery count %d, want 2", qr.Count)
	}
}

// TestServeRestartOnFragmentedLog: a log that ends in a fragment of a page —
// the disk filled up, or the power went, while a commit was extending the
// file — is by construction an uncommitted tail. The server restarts on it,
// answers what it answered before the crash, and writes over the fragment.
func TestServeRestartOnFragmentedLog(t *testing.T) {
	dir := t.TempDir()
	wr := writeConfig{enabled: true, dir: dir}
	boot := func() *httptest.Server {
		cols, err := buildCollections("", "", "", 1, 2, 1, 1, 0, 0, wr)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
		t.Cleanup(srv.Close)
		return srv
	}
	srv := boot()
	for _, id := range []string{"a", "b", "c", "d"} {
		do(t, "PUT", srv.URL+"/docs/"+id, `<db><manager><name>`+id+`</name></manager></db>`, nil)
	}
	var before queryResponse
	getJSON(t, srv.URL+"/query?q=//manager/name", &before)
	srv.Close()

	logs, err := filepath.Glob(filepath.Join(dir, "default", "shard-*.wal"))
	if err != nil || len(logs) != 2 {
		t.Fatalf("shard logs %v, %v", logs, err)
	}
	for _, path := range logs {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	srv2 := boot()
	var after queryResponse
	getJSON(t, srv2.URL+"/query?q=//manager/name", &after)
	if after.Count != 4 || after.Count != before.Count || len(after.Docs) != len(before.Docs) {
		t.Fatalf("after the restart: %+v, before the crash: %+v", after, before)
	}
	var ist sjos.CorpusIngestStats
	getJSON(t, srv2.URL+"/ingest", &ist)
	if ist.Docs != 4 || ist.RecoveredTxns == 0 || ist.RecoverySeconds <= 0 {
		t.Fatalf("/ingest after the restart: %+v", ist)
	}
	for _, id := range []string{"e", "f", "g", "h"} { // some land on each shard
		if resp := do(t, "PUT", srv2.URL+"/docs/"+id, `<db><manager><name>`+id+`</name></manager></db>`, nil); resp.StatusCode != 200 {
			t.Fatalf("PUT %s over the fragment: status %d", id, resp.StatusCode)
		}
	}
	srv2.Close()
	var third queryResponse
	getJSON(t, boot().URL+"/query?q=//manager/name", &third)
	if third.Count != 8 {
		t.Fatalf("after writing over the fragment and restarting: count %d, want 8", third.Count)
	}
}

// TestHealthzReplicas exercises the serving path against a replicated
// collection: /healthz must expose every replica's routing state, and
// queries must still produce correct results through replica routing.
func TestHealthzReplicas(t *testing.T) {
	c, err := buildDatasetCorpus("default", "pers", 2, 1, sjos.CorpusOptions{Shards: 2, ReplicasPerShard: 2}, writeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cols := &collections{}
	cols.add("default", c)
	srv := httptest.NewServer(newMux(cols, sjos.MethodDPP))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	shards := hr.Collections["default"]
	if len(shards) == 0 {
		t.Fatal("no shards in /healthz")
	}
	populated := 0
	for _, sh := range shards {
		if sh.Docs == 0 {
			continue // empty shards carry no stores, hence no replicas
		}
		populated++
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard %d: %d replicas in /healthz, want 2", sh.Shard, len(sh.Replicas))
		}
		for _, r := range sh.Replicas {
			if r.State != "healthy" {
				t.Errorf("shard %d replica %d state %q, want healthy", sh.Shard, r.Replica, r.State)
			}
		}
	}
	if populated == 0 {
		t.Fatal("no populated shards in /healthz")
	}

	qr, err := http.Get(srv.URL + "/query?q=//manager//name&count=1")
	if err != nil {
		t.Fatal(err)
	}
	defer qr.Body.Close()
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("query status %d, want 200", qr.StatusCode)
	}
	var q queryResponse
	if err := json.NewDecoder(qr.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Count == 0 {
		t.Fatal("replicated collection returned no matches")
	}
}
