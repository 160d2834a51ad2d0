package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"sjos"
	"sjos/internal/pattern"
	"sjos/internal/plancache"
	"sjos/internal/xmltree"
)

// A traced run replays a sample of one workload single-threaded. Each request
// is done twice over: in this process, against an sjos.Corpus built from the
// same generated documents, one call per layer with a span around each; and
// over HTTP against the spawned server, as one more span. Everything the
// spans time is a public function of a layer, called from this directory's
// files — the program under test carries no tracing of the benchmark's.

type traceRun struct {
	h      *harness
	tr     *tracer
	ctx    context.Context
	method sjos.Method
	local  *sjos.Corpus
	// cache stands where the server's plan cache stands: keyed by
	// fingerprint, emptied of use by every statistics bump.
	cache   *plancache.Cache[*sjos.Plan]
	version uint64
	docs    []*document // what local and the server hold right now
	next    int         // request identifier

	rows             float64 // matches produced by the replayed reads
	countNs, runNs   float64 // time in exec.count and corpus.run over them
	writeHTTP        []float64
	compactWrites    []float64
	compactionsSoFar int
}

// newLocalCorpus builds the in-process twin of the server: as many shards,
// one write-ahead log per shard on the page files walFile hands out.
func newLocalCorpus(docs []*document, walFile func(shard int) sjos.PageFile) (*sjos.Corpus, error) {
	c, err := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: serverShards, ShardWALFile: walFile}).Build()
	if err != nil {
		return nil, err
	}
	for _, d := range docs {
		if err := c.InsertString(d.id, d.xml); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func memWAL(int) sjos.PageFile { return sjos.NewMemPageFile() }

func traceWorkload(h *harness, in *inputs, out string) error {
	docs, warm := in.docs, in.verify
	method, err := sjos.ParseMethod("DPP") // xqserve's default
	if err != nil {
		return err
	}
	if err := h.setup(docs); err != nil {
		return err
	}
	h.verifyAll(warm)
	local, err := newLocalCorpus(docs, memWAL)
	if err != nil {
		return err
	}
	t := &traceRun{h: h, tr: newTracer(), ctx: context.Background(), method: method, local: local,
		cache: plancache.New[*sjos.Plan](0), docs: docs}
	for i := range warm { // the twin gets the warm-up the server got
		t.read(&warm[i], false)
	}
	t.tr = newTracer()
	t.rows, t.countNs, t.runNs = 0, 0, 0

	before, err := h.cl.counters()
	h.op("GET /metrics", err)
	// The replayed sample is the first passes of the end-to-end cycle.
	for pass := 0; pass < h.size.passes; pass++ {
		for _, st := range in.cycle(pass) {
			if st.write != nil {
				t.write(st.write)
			} else {
				t.read(st.read, true)
			}
		}
	}
	t.report()
	t.printSelfTimes(os.Stdout)
	// finish reads the counters first, so the hit rates cover the replay
	// only; the probes below then use the server it restarted.
	h.finish(t.docs, in.post, before, 1)
	if h.srv == nil {
		return fmt.Errorf("no server left to probe")
	}
	h.layer["ingest.compact_write_ms"] = median(t.compactWrites)
	if len(t.writeHTTP) > 0 {
		h.layer["client.write_p90_ms"] = percentile(sortedCopy(t.writeHTTP), 90)
	}
	h.readLoads() // the loading PUTs where the replay wrote nothing

	if err := probeXQServe(h, t.docs); err != nil {
		return err
	}
	// The corpus probes share one fresh twin; probeIngest leaves it as it
	// found it.
	fresh, err := newLocalCorpus(docs, memWAL)
	if err != nil {
		return err
	}
	for _, probe := range []func() error{
		func() error { return probeIngest(h, fresh, docs) },
		func() error { return probeCorpus(h, fresh) },
		func() error { return probeCore(h, fresh) },
		func() error { return probePlanCache(h) },
		func() error { return probeHistogram(h, docs) },
		func() error { return probeStorage(h, docs) },
		func() error { return probeXMLTree(h, docs) },
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return t.tr.write(out)
}

// read replays one query. With check set its answers — in process and over
// HTTP — are held to the oracle over the documents held at this moment.
func (t *traceRun) read(r *request, check bool) {
	tr, id := t.tr, t.next
	t.next++
	var want uint64
	if check {
		reqs := []request{*r}
		if err := resolve(reqs, t.docs); !t.h.op("oracle", err) {
			return
		}
		want = reqs[0].wantCount()
	}
	fail := func(what string, err error) { t.h.op(fmt.Sprintf("%s %s", what, r.path()), err) }
	root := tr.begin("request", -1, id)
	defer tr.end(root)

	var pat *sjos.Pattern
	var err error
	tr.in("pattern.parse", root, id, func() { pat, err = sjos.ParsePattern(r.query) })
	if err != nil {
		fail("parse", err)
		return
	}
	var fp string
	tr.in("pattern.fingerprint", root, id, func() { fp, _ = pattern.Fingerprint(pat) })

	get := tr.begin("plancache.get", root, id)
	key := plancache.Key{Fingerprint: fp, Method: int(t.method), StatsVersion: t.version}
	plan, _, err := t.cache.GetOrCompute(t.ctx, key, func() (*sjos.Plan, error) {
		var res *sjos.OptimizeResult
		var err error
		tr.in("core.plan", get, id, func() { res, err = t.local.OptimizeContext(t.ctx, pat, t.method, 0) })
		if err != nil {
			return nil, err
		}
		return res.Plan, nil
	})
	tr.end(get)
	if err != nil {
		fail("plan", err)
		return
	}

	opts := sjos.RunOptions{ExecOptions: sjos.ExecOptions{Limit: r.limit}}
	countOpts := opts
	countOpts.CountOnly = true
	var counted, ran *sjos.CorpusRunResult
	c := tr.begin("exec.count", root, id)
	counted, err = t.local.Run(t.ctx, pat, plan, countOpts)
	tr.end(c)
	if err != nil {
		fail("count", err)
		return
	}
	f := tr.begin("corpus.run", root, id)
	ran, err = t.local.Run(t.ctx, pat, plan, opts)
	tr.end(f)
	if err != nil {
		fail("run", err)
		return
	}
	t.rows += float64(ran.Count)
	t.countNs += float64(tr.spans[c].End - tr.spans[c].Start)
	t.runNs += float64(tr.spans[f].End - tr.spans[f].Start)

	var res *sjos.CorpusQueryResult
	tr.in("corpus.query", root, id, func() {
		res, err = t.local.QueryContext(t.ctx, r.query, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: t.method, Limit: r.limit}})
	})
	if err != nil {
		fail("query", err)
		return
	}
	var served uint64
	tr.in("serve.http", root, id, func() { served, _, err = t.h.cl.query(r.path()) })
	if err != nil {
		fail("GET", err)
		return
	}
	if check {
		for _, got := range []uint64{uint64(counted.Count), uint64(ran.Count), uint64(len(ran.Matches)), uint64(res.Count), served} {
			if got != want {
				err = fmt.Errorf("counts %d/%d/%d/%d/%d (count-only, run, rows, query, http), oracle says %d",
					counted.Count, ran.Count, len(ran.Matches), res.Count, served, want)
			}
		}
		fail("answers of", err)
	}
}

// write replays one ledger entry in process and over HTTP.
func (t *traceRun) write(m *mutation) {
	tr, id := t.tr, t.next
	t.next++
	root := tr.begin("write", -1, id)
	defer tr.end(root)
	body := ""
	if m.doc != nil {
		body = m.doc.xml
		tr.in("xmltree.parse", root, id, func() { xmltree.ParseString(body) })
	}
	var err error
	tr.in("ingest.commit", root, id, func() {
		switch m.op {
		case "insert":
			err = t.local.InsertString(m.id, body)
		case "replace":
			err = t.local.ReplaceString(m.id, body)
		default:
			err = t.local.Delete(m.id)
		}
	})
	if !t.h.op("in-process "+m.op+" "+m.id, err) {
		return
	}
	s := tr.begin("serve.http", root, id)
	err = t.h.cl.mutate(m.id, body)
	tr.end(s)
	if !t.h.op(m.op+" "+m.id, err) {
		return
	}
	took := float64(tr.spans[s].End-tr.spans[s].Start) / 1e6
	t.writeHTTP = append(t.writeHTTP, took)
	t.h.loaded += int64(len(body))
	if st, err := t.h.cl.ingest(); err == nil && st.Compactions > t.compactionsSoFar {
		t.compactionsSoFar = st.Compactions
		t.compactWrites = append(t.compactWrites, took)
	}
	t.version++
	t.docs = applyMutation(t.docs, m)
}

// report turns the replay's spans into the workload's per-layer metrics.
func (t *traceRun) report() {
	l := t.h.layer
	med := func(name string) float64 { return median(t.tr.durations(name)) }
	var reads []float64 // serve.http of queries, not of writes
	for _, s := range t.tr.spans {
		if s.Name == "serve.http" && t.tr.spans[s.Parent].Name == "request" {
			reads = append(reads, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(reads)
	http := percentile(reads, 50)
	l["client.http_p50_ms"] = http
	l["client.lat_p99_ms"] = percentile(reads, 99)
	l["client.samples"] = float64(len(reads))
	l["pattern.parse_us"] = med("pattern.parse") * 1e3
	l["pattern.fingerprint_us"] = med("pattern.fingerprint") * 1e3
	l["corpus.query_ms"] = med("corpus.query")
	l["exec.count_ms"] = med("exec.count")
	l["xqserve.overhead_ms"] = http - l["corpus.query_ms"]
	if t.rows > 0 {
		l["exec.rows_per_s"] = t.rows / (t.countNs / 1e9)
		// Where results are a handful of rows the difference is noise around
		// zero, and reads as zero.
		l["corpus.result_path_ns_per_row"] = math.Max(0, t.runNs-t.countNs) / t.rows
	}
	// What the layers account for: the four calls a query is made of, plus
	// what the server adds around them. The rest of the HTTP median is what
	// Corpus.QueryContext does beyond its parts, and the error of adding
	// medians.
	explained := med("pattern.parse") + med("pattern.fingerprint") + med("plancache.get") + med("corpus.run") + l["xqserve.overhead_ms"]
	if http > 0 {
		l["trace.unexplained_share"] = 1 - explained/http
	}
}

// printSelfTimes says where the replay's time went: per span name, the time
// spent in that layer and in no layer below it.
func (t *traceRun) printSelfTimes(out io.Writer) {
	total := map[string]time.Duration{}
	var all time.Duration
	for i, d := range selfTimes(t.tr.spans) {
		total[t.tr.spans[i].Name] += d
		all += d
	}
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	fmt.Fprintf(out, "\nself time by span over the replay (%.0f ms)\n", ms(all))
	for _, name := range names {
		fmt.Fprintf(out, "  %-22s %10.1f ms  %5.1f %%\n", name, ms(total[name]), 100*float64(total[name])/float64(all))
	}
}
