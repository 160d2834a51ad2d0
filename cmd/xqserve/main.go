// Command xqserve serves one or more query collections over HTTP — the
// observability face of the query service. A collection is a corpus:
// many documents sharded by consistent hashing, queried with scatter-gather.
//
//	xqserve -dataset pers -docs 8 -shards 4 -addr :8377
//	xqserve -dataset pers -docs 8 -shards 4 -replicas 2
//	xqserve -collections staff=pers:8,papers=dblp:4 -shards 4
//	xqserve -xml file.xml -slowquery 50ms
//
// Endpoints:
//
//	GET /query?q=//manager//name[&method=FP][&limit=10][&count=1][&trace=1]
//	    evaluate a tree pattern on the default (first) collection; JSON
//	    response with matches, their documents, timings, the plan, the
//	    algorithm that produced it, and (with trace=1) the merged
//	    per-operator trace
//	GET /collections                     list collections (docs, shards, nodes)
//	GET /collections/{name}/query        evaluate on a named collection
//	GET /collections/{name}/metrics      that collection's Prometheus counters
//	GET /collections/{name}/slow         that collection's slow-query log
//	GET /metrics   Prometheus text exposition (default collection)
//	GET /healthz   per-collection, per-shard health as JSON, including each
//	               replica's routing state (healthy / suspect / probation)
//	               when -replicas > 1
//	GET /slow      recent slow-query log entries (default collection)
//
// With -writable (in-memory WALs) or -waldir (durable on-disk WALs, with
// crash recovery on restart) each collection also serves:
//
//	PUT    /docs/{id}    upsert the XML document in the request body
//	DELETE /docs/{id}    remove the document
//	GET    /ingest       write-path state (docs, WAL pages, compactions)
//	PUT    /collections/{name}/docs/{id}, DELETE .../docs/{id},
//	GET    /collections/{name}/ingest    the same for a named collection
//
// Mutations pass the same admission gate as queries: -maxinflight bounds
// them and shutdown drains refuse them with 503.
//
// A query shape the plan cache has not seen is planned with FP by default
// (-method): the cheapest fully-pipelined plan, found in tens of
// microseconds on a 12-13-node twig, where DPP's search costs several
// executions of the plan it finds and DPAP-EB's bounded search strands and
// serves FP's plan, or a costlier one, after two to three times FP's planning
// (DESIGN.md §5a has the measurements that chose it, and the background
// re-planning that was measured and not shipped). "algorithm" in the response
// names the algorithm that produced the plan; -method, or method= on a
// request, picks another one.
//
// A /query body is streamed, byte-identical to an encoding/json rendering
// (encode.go; DESIGN.md §5i), 128 KB at a time. Its rows are cut into chunks
// of 8 192 cells; a result of two chunks or more is rendered on up to
// GOMAXPROCS goroutines, each a few quanta ahead of the socket at most, and
// the handler writes the chunks in order. A matched node is
// rendered once per document per render goroutine. count=1 answers with the
// count alone, which the shards count without collecting a row. /metrics
// adds what those responses cost to the corpus's own counters:
// sjos_query_rows_total and sjos_query_response_bytes_total.
//
// A -slowquery threshold logs offending queries (fingerprint, method,
// duration, per-operator trace) to stderr and retains them for /slow.
//
// The server sheds load and exits gracefully: -maxinflight bounds how many
// queries execute at once per collection (with up to -queuedepth more
// waiting; arrivals past that get 503), and on SIGTERM/SIGINT the server
// stops accepting, drains every collection for up to -draintimeout, then
// exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sjos"
	"sjos/internal/core"
	"sjos/internal/storage"
)

func main() {
	xmlPath := flag.String("xml", "", "XML file to serve as a single-document collection")
	dataset := flag.String("dataset", "", "generated data set: mbench, dblp or pers")
	collections := flag.String("collections", "", "comma-separated name=dataset[:docs] collection specs (overrides -xml/-dataset)")
	docs := flag.Int("docs", 1, "documents per collection for -dataset (distinct generator seeds)")
	shards := flag.Int("shards", 0, "shards per collection (0 = one per document, capped at GOMAXPROCS)")
	replicas := flag.Int("replicas", 1, "store replicas per shard (>1 enables health-aware routing and failover)")
	fold := flag.Int("fold", 1, "folding factor for generated data sets")
	method := flag.String("method", core.ServeMethod.String(), "default optimizer for /query, run on every plan-cache miss (DP, DPP, DPAP-EB, DPAP-LD, FP, Greedy; FP plans a 12-13-node twig in tens of microseconds); method= on a request overrides it")
	addr := flag.String("addr", ":8377", "listen address")
	slowQuery := flag.Duration("slowquery", 0, "slow-query log threshold (0 = disabled)")
	maxInFlight := flag.Int("maxinflight", 0, "max concurrently executing queries per collection (0 = unlimited)")
	queueDepth := flag.Int("queuedepth", 0, "queries allowed to wait for an execution slot when -maxinflight is set")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "how long shutdown waits for in-flight queries")
	writable := flag.Bool("writable", false, "enable the write endpoints with in-memory per-shard WALs")
	walDir := flag.String("waldir", "", "enable the write endpoints with durable per-shard WALs under this directory (recovers committed state on restart)")
	flag.Parse()

	wr := writeConfig{enabled: *writable || *walDir != "", dir: *walDir}
	cols, err := buildCollections(*collections, *xmlPath, *dataset, *docs, *shards, *replicas, *fold, *maxInFlight, *queueDepth, wr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xqserve: %v\n", err)
		os.Exit(2)
	}
	m, err := sjos.ParseMethod(*method)
	if err != nil {
		log.Fatalf("xqserve: %v", err)
	}
	for _, name := range cols.names {
		c := cols.byName[name]
		if *slowQuery > 0 {
			name := name
			c.SetSlowQueryLog(*slowQuery, func(e sjos.SlowQueryEntry) {
				log.Printf("slow query [%s]: %s (%s, fingerprint %s) took %v (optimize %v, execute %v), %d matches",
					name, e.Pattern, e.Method, e.Fingerprint, e.Duration, e.OptimizeTime, e.ExecuteTime, e.Matches)
			})
		}
		log.Printf("xqserve: collection %q: %d documents over %d shards (%d replicas/shard)",
			name, c.NumDocs(), c.NumShards(), *replicas)
	}
	log.Printf("xqserve: optimizer %s; listening on %s", m, *addr)
	srv := &http.Server{Addr: *addr, Handler: newMux(cols, m)}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("xqserve: %v", err)
	case <-ctx.Done():
	}
	// Graceful exit: stop accepting connections, then wait for every
	// admitted query in every collection to finish (new arrivals already
	// get 503 via the corpus drains) — all bounded by -draintimeout.
	log.Printf("xqserve: shutting down (draining for up to %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	for _, name := range cols.names {
		if err := cols.byName[name].Drain(dctx); err != nil {
			log.Printf("xqserve: drain %q: %v (queries still running)", name, err)
		}
	}
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("xqserve: shutdown: %v", err)
	}
	log.Printf("xqserve: bye")
}

// collections is the server's routing table: named corpora in registration
// order; the first is the default one behind the legacy top-level routes.
type collections struct {
	names  []string
	byName map[string]*collection
}

// collection is one served corpus and what its /query responses have cost.
type collection struct {
	*sjos.Corpus
	// rows counts the result rows of responses written whole, respBytes
	// every body byte handed to a client, as writeQueryBody flushes it: with
	// sjos_query_seconds they give render time and bytes per row from
	// outside, the way the repository benchmark's traced run derives them.
	rows, respBytes atomic.Uint64
}

func (c *collections) add(name string, corpus *sjos.Corpus) {
	if c.byName == nil {
		c.byName = make(map[string]*collection)
	}
	c.names = append(c.names, name)
	c.byName[name] = &collection{Corpus: corpus}
}

func (c *collections) def() *collection { return c.byName[c.names[0]] }

// meteredWriter adds every byte written through it to n.
type meteredWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (m meteredWriter) Write(p []byte) (int, error) {
	n, err := m.w.Write(p)
	m.n.Add(uint64(n))
	return n, err
}

// writeConfig carries the -writable / -waldir settings: whether collections
// get a write path, and where its per-shard WALs live (empty = in memory).
type writeConfig struct {
	enabled bool
	dir     string
}

// walFileFunc builds the per-shard WAL supplier for one collection, or nil
// when the server is read-only. With a -waldir, shard s of collection name
// logs to <dir>/<name>/shard-NNN.wal — opened if it exists (recovery),
// created otherwise.
func (wr writeConfig) walFileFunc(name string) (func(int) sjos.PageFile, error) {
	if !wr.enabled {
		return nil, nil
	}
	if wr.dir == "" {
		return func(int) sjos.PageFile { return storage.NewMemFile() }, nil
	}
	dir := filepath.Join(wr.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return func(shard int) sjos.PageFile {
		path := filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", shard))
		if _, err := os.Stat(path); err == nil {
			f, err := storage.OpenDiskFile(path)
			if err != nil {
				log.Fatalf("xqserve: opening WAL %s: %v", path, err)
			}
			return f
		}
		f, err := storage.CreateDiskFile(path)
		if err != nil {
			log.Fatalf("xqserve: creating WAL %s: %v", path, err)
		}
		return f
	}, nil
}

// buildCollections assembles the serving set from the flag spec: either
// explicit -collections entries, or the legacy single -xml / -dataset
// source as the collection "default".
func buildCollections(spec, xmlPath, dataset string, docs, shards, replicas, fold, maxInFlight, queueDepth int, wr writeConfig) (*collections, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("-replicas must be at least 1 (got %d)", replicas)
	}
	opts := sjos.CorpusOptions{
		Shards:           shards,
		ReplicasPerShard: replicas,
		MaxInFlight:      maxInFlight,
		QueueDepth:       queueDepth,
	}
	cols := &collections{}
	if spec != "" {
		for _, entry := range strings.Split(spec, ",") {
			name, src, ok := strings.Cut(strings.TrimSpace(entry), "=")
			if !ok || name == "" {
				return nil, fmt.Errorf("bad -collections entry %q (want name=dataset[:docs])", entry)
			}
			ds, cnt := src, docs
			if d, n, ok := strings.Cut(src, ":"); ok {
				v, err := strconv.Atoi(n)
				if err != nil || v < 1 {
					return nil, fmt.Errorf("bad document count in -collections entry %q", entry)
				}
				ds, cnt = d, v
			}
			c, err := buildDatasetCorpus(name, ds, cnt, fold, opts, wr)
			if err != nil {
				return nil, err
			}
			cols.add(name, c)
		}
		return cols, nil
	}
	if xmlPath != "" && dataset != "" {
		return nil, errors.New("need at most one of -xml / -dataset / -collections")
	}
	if xmlPath == "" && dataset == "" {
		if !wr.enabled {
			return nil, errors.New("need one of -xml / -dataset / -collections (or -writable / -waldir for an empty writable collection)")
		}
		// A writable server may start empty and be populated over HTTP.
		c, err := buildDatasetCorpus("default", "", 0, fold, opts, wr)
		if err != nil {
			return nil, err
		}
		cols.add("default", c)
		return cols, nil
	}
	if xmlPath != "" {
		f, err := os.Open(xmlPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c, err := buildCorpus("default", opts, wr, func(b *sjos.CorpusBuilder) error {
			return b.AddXML(xmlPath, f)
		})
		if err != nil {
			return nil, err
		}
		cols.add("default", c)
		return cols, nil
	}
	c, err := buildDatasetCorpus("default", dataset, docs, fold, opts, wr)
	if err != nil {
		return nil, err
	}
	cols.add("default", c)
	return cols, nil
}

// buildDatasetCorpus builds one collection of docs generated documents
// (distinct seeds); a writable collection may start with none.
func buildDatasetCorpus(name, dataset string, docs, fold int, opts sjos.CorpusOptions, wr writeConfig) (*sjos.Corpus, error) {
	if docs < 1 && !wr.enabled {
		docs = 1
	}
	return buildCorpus(name, opts, wr, func(b *sjos.CorpusBuilder) error {
		for i := 0; i < docs; i++ {
			id := fmt.Sprintf("%s-%03d", dataset, i)
			if err := b.AddDataset(id, dataset, 1, fold, int64(1+i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// buildCorpus builds one collection from the flag settings (opts, plus the
// collection's log files from wr); fill adds its initial documents.
func buildCorpus(name string, opts sjos.CorpusOptions, wr writeConfig, fill func(*sjos.CorpusBuilder) error) (*sjos.Corpus, error) {
	walFile, err := wr.walFileFunc(name)
	if err != nil {
		return nil, fmt.Errorf("collection %q: %w", name, err)
	}
	opts.ShardWALFile = walFile
	b := sjos.NewCorpusBuilder(&opts)
	if err := fill(b); err != nil {
		return nil, fmt.Errorf("collection %q: %w", name, err)
	}
	return b.Build()
}

// collectionInfo is one /collections list entry.
type collectionInfo struct {
	Name   string `json:"name"`
	Docs   int    `json:"docs"`
	Shards int    `json:"shards"`
	Nodes  int    `json:"nodes"`
}

// healthResponse is the /healthz payload: liveness plus per-collection,
// per-shard detail.
type healthResponse struct {
	Status      string                        `json:"status"`
	Collections map[string][]sjos.ShardHealth `json:"collections"`
}

// newMux assembles the HTTP handlers; split from main so tests can drive it
// with httptest.
func newMux(cols *collections, defaultMethod sjos.Method) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		resp := healthResponse{Status: "ok", Collections: make(map[string][]sjos.ShardHealth, len(cols.names))}
		for _, name := range cols.names {
			resp.Collections[name] = cols.byName[name].Health()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /collections", func(w http.ResponseWriter, r *http.Request) {
		out := make([]collectionInfo, 0, len(cols.names))
		for _, name := range cols.names {
			c := cols.byName[name]
			info := collectionInfo{Name: name, Docs: c.NumDocs(), Shards: c.NumShards()}
			for _, h := range c.Health() {
				info.Nodes += h.Nodes
			}
			out = append(out, info)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
	named := func(pick func(*http.Request) (*collection, bool), h func(http.ResponseWriter, *http.Request, *collection)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			c, ok := pick(r)
			if !ok {
				http.Error(w, "no such collection", http.StatusNotFound)
				return
			}
			h(w, r, c)
		}
	}
	defC := func(*http.Request) (*collection, bool) { return cols.def(), true }
	byPath := func(r *http.Request) (*collection, bool) {
		c, ok := cols.byName[r.PathValue("name")]
		return c, ok
	}
	metrics := func(w http.ResponseWriter, r *http.Request, c *collection) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.WriteMetrics(w)
		fmt.Fprintf(w, "# HELP sjos_query_rows_total Result rows of /query responses written whole.\n# TYPE sjos_query_rows_total counter\nsjos_query_rows_total %d\n", c.rows.Load())
		fmt.Fprintf(w, "# HELP sjos_query_response_bytes_total Body bytes of /query responses handed to clients.\n# TYPE sjos_query_response_bytes_total counter\nsjos_query_response_bytes_total %d\n", c.respBytes.Load())
	}
	slow := func(w http.ResponseWriter, r *http.Request, c *collection) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.SlowQueries())
	}
	query := func(w http.ResponseWriter, r *http.Request, c *collection) {
		serveQuery(w, r, c, defaultMethod)
	}
	ingest := func(w http.ResponseWriter, r *http.Request, c *collection) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.IngestStats())
	}
	mux.HandleFunc("GET /metrics", named(defC, metrics))
	mux.HandleFunc("GET /slow", named(defC, slow))
	mux.HandleFunc("GET /query", named(defC, query))
	mux.HandleFunc("GET /ingest", named(defC, ingest))
	mux.HandleFunc("PUT /docs/{id}", named(defC, servePut))
	mux.HandleFunc("DELETE /docs/{id}", named(defC, serveDelete))
	mux.HandleFunc("GET /collections/{name}/metrics", named(byPath, metrics))
	mux.HandleFunc("GET /collections/{name}/slow", named(byPath, slow))
	mux.HandleFunc("GET /collections/{name}/query", named(byPath, query))
	mux.HandleFunc("GET /collections/{name}/ingest", named(byPath, ingest))
	mux.HandleFunc("PUT /collections/{name}/docs/{id}", named(byPath, servePut))
	mux.HandleFunc("DELETE /collections/{name}/docs/{id}", named(byPath, serveDelete))
	return mux
}

// writeResponse is the PUT/DELETE /docs/{id} JSON payload.
type writeResponse struct {
	Doc string `json:"doc"`
	// Op says what the upsert resolved to: insert, replace, or delete.
	Op   string `json:"op"`
	Docs int    `json:"docs"`
}

// maxDocBytes bounds one PUT body. The parser holds a document whole while
// it scans it, so an unbounded body is unbounded memory; 32 MiB is some
// three hundred times the documents the benchmarks load.
const maxDocBytes = 32 << 20

// servePut upserts the XML document in the request body: Insert when the ID
// is new, Replace when it already exists.
func servePut(w http.ResponseWriter, r *http.Request, c *collection) {
	id := r.PathValue("id")
	body := http.MaxBytesReader(w, r.Body, maxDocBytes)
	op := "insert"
	var err error
	if _, exists := c.ShardOf(id); exists {
		op = "replace"
		err = c.Replace(id, body)
	} else {
		err = c.Insert(id, body)
	}
	if err != nil {
		writeMutationError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(writeResponse{Doc: id, Op: op, Docs: c.NumDocs()})
}

func serveDelete(w http.ResponseWriter, r *http.Request, c *collection) {
	id := r.PathValue("id")
	if _, exists := c.ShardOf(id); !exists && c.IngestEnabled() {
		http.Error(w, "no such document", http.StatusNotFound)
		return
	}
	if err := c.Delete(id); err != nil {
		writeMutationError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(writeResponse{Doc: id, Op: "delete", Docs: c.NumDocs()})
}

// writeMutationError maps write-path failures onto HTTP: a read-only
// collection refuses the method, load shed and drains are retryable, a
// poisoned shard is a server fault, a body past maxDocBytes is too large,
// and everything else (bad XML, ID conflicts) is the client's.
func writeMutationError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("document larger than %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
	case errors.Is(err, sjos.ErrNoWAL):
		http.Error(w, "collection is read-only (start xqserve with -writable or -waldir)", http.StatusMethodNotAllowed)
	case errors.Is(err, sjos.ErrOverloaded) || errors.Is(err, sjos.ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, sjos.ErrBroken):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func serveQuery(w http.ResponseWriter, r *http.Request, c *collection, defaultMethod sjos.Method) {
	src := r.URL.Query().Get("q")
	if src == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	m := defaultMethod
	if ms := r.URL.Query().Get("method"); ms != "" {
		var err error
		if m, err = sjos.ParseMethod(ms); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: m}}
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		opts.Limit = n
	}
	opts.Trace = boolParam(r, "trace")
	rows := !boolParam(r, "count")
	opts.CountOnly = !rows
	res, err := c.QueryContext(r.Context(), src, opts)
	if err != nil {
		writeQueryError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := writeQueryBody(r.Context(), meteredWriter{w, &c.respBytes}, res, rows); err != nil {
		if r.Context().Err() == nil {
			log.Printf("xqserve: writing /query response: %v", err)
		}
	} else if rows {
		c.rows.Add(uint64(res.Count))
	}
}

// writeQueryError maps a failed query onto HTTP. A request whose own
// context ended (the client went away) gets nothing; load shed and shutdown
// are retryable service conditions; a recovered panic, a page that failed
// verification or a poisoned write path is the server's fault; everything
// else (bad pattern or method, oversized twig) is the client's.
func writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	var (
		panicked *sjos.PanicError
		corrupt  *sjos.CorruptPageError
	)
	switch {
	case r.Context().Err() != nil:
	case errors.Is(err, sjos.ErrOverloaded) || errors.Is(err, sjos.ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.As(err, &panicked) || errors.As(err, &corrupt) || errors.Is(err, sjos.ErrBroken):
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true" || v == "yes"
}
