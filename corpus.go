package sjos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sjos/internal/core"
	"sjos/internal/datagen"
	"sjos/internal/exec"
	"sjos/internal/histogram"
	"sjos/internal/pattern"
	"sjos/internal/replica"
	"sjos/internal/shardring"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// CorpusOptions configures corpus construction. The zero value (or a nil
// *CorpusOptions) builds a read-only corpus in memory, one shard per
// document up to GOMAXPROCS — one shard for the paper's single document.
type CorpusOptions struct {
	// PoolFrames sizes each replica store's buffer pool (8 KB frames). 0
	// means the default 2048 frames = 16 MB, the paper's SHORE
	// configuration.
	PoolFrames int
	// MaxInFlight > 0 bounds how many queries and writes execute
	// concurrently across the whole corpus — the corpus is the admission
	// boundary; arrivals past the limit wait (up to QueueDepth of them), and
	// past that fail fast with ErrOverloaded. 0 means unlimited.
	MaxInFlight int
	// QueueDepth bounds how many arrivals may wait for an execution slot
	// when MaxInFlight is set (0 = no waiting: the limit fails fast).
	QueueDepth int

	// Shards is the number of shards documents are distributed over by
	// consistent hashing of their IDs. <= 0 selects min(#docs, GOMAXPROCS).
	Shards int
	// ReplicasPerShard is the number of independent store copies built per
	// shard (<= 0 selects 1). Replicas hold the same members and share the
	// shard's statistics, but each has its own forest, page file and buffer
	// pool; queries route to the healthiest replica and fail over to the
	// next on error.
	ReplicasPerShard int
	// ReplicaProbeInterval spaces the half-open probes of a probation
	// replica (<= 0 selects the internal/replica default, 500ms).
	ReplicaProbeInterval time.Duration
	// ShardPageFile, when non-nil, supplies the page file each replica of
	// each shard's store is built on (a nil file: memory) — disk files from
	// CreatePageFile, per-replica fault wrappers (chaos testing a single
	// failing replica) and alternative backends.
	ShardPageFile func(shard, replica int) PageFile

	// ShardWALFile, when non-nil, enables the corpus write path: every ring
	// shard is pre-created (even the ones no initial document hashed to, so
	// later inserts can land anywhere), shard s's primary replica logs its
	// mutations to ShardWALFile(s), and Corpus.Insert/Delete/Replace become
	// available. A corpus may then be built with zero documents. Additional
	// replicas per shard follow the primary's committed mutations without a
	// log of their own; a follower that fails to apply one is taken out of
	// query routing permanently (see ReplicaHealth.Down).
	//
	// Every mutation is logged as a redo transaction (begin with the
	// document, a digest of the staged pages, commit) in checksummed pages
	// and fsynced before it is applied, so a crash at any point leaves the
	// shard fully pre- or fully post-commit. A log that already holds
	// committed transactions is recovered from (build with the same Shards
	// and mapping, and no documents); the store files are rebuildable caches
	// and must be fresh. A one-shard corpus is the single writable store.
	ShardWALFile func(shard int) PageFile
	// CompactThreshold is the dead-node fraction past which a Delete or
	// Replace triggers automatic compaction of the shard's store (0 selects
	// DefaultCompactThreshold; negative disables auto-compaction). Ignored
	// without ShardWALFile.
	CompactThreshold float64
}

// corpusReplica is one independent copy of a shard's store: its own engine
// (forest, page file and buffer pool) over the shard's members, plus the
// health tracker routing decisions consult.
type corpusReplica struct {
	eng    *engine
	health *replica.Tracker
	// down marks a follower that failed to apply a committed mutation: its
	// store has diverged from the shard, so routing skips it permanently
	// (health probes cannot heal a missing document).
	down atomic.Bool
}

// corpusShard is one shard: one or more replica engines, each over a forest
// of the shard's member documents. The bookkeeping to translate forest node
// IDs back into per-document ones is the member table of each published
// snapshot, pinned per query.
type corpusShard struct {
	id int
	// replicas holds the shard's store copies; always at least one.
	replicas []*corpusReplica
	// rr rotates query routing among the healthy replicas.
	rr atomic.Uint64
}

// meta returns the shard's metadata replica: every replica holds the same
// forest layout, tag dictionary and member table, and replica 0 is the
// write path's primary — it owns the WAL and the histogram parts — so it
// answers all planning and node-resolution questions regardless of routing
// health.
func (sh *corpusShard) meta() *engine { return sh.replicas[0].eng }

// routeOrder ranks the shard's replicas for one query: a degraded replica
// whose half-open probe is due goes first (the query IS the probe — its
// outcome decides recovery, and failover covers it if the probe fails), then
// healthy replicas in rotation, then suspect ones as failover targets, then
// probation replicas as a last resort. Every replica appears exactly once,
// so failover can always exhaust the set.
func (sh *corpusShard) routeOrder(now time.Time) []*corpusReplica {
	if len(sh.replicas) == 1 {
		return sh.replicas
	}
	var probing, healthy, suspect, probation []*corpusReplica
	for _, rep := range sh.replicas {
		if rep.down.Load() {
			// A follower that failed to apply a committed mutation serves
			// stale data; keep it out of routing entirely.
			continue
		}
		switch {
		case rep.health.AllowProbe(now):
			probing = append(probing, rep)
		case rep.health.State() == replica.Healthy:
			healthy = append(healthy, rep)
		case rep.health.State() == replica.Suspect:
			suspect = append(suspect, rep)
		default:
			probation = append(probation, rep)
		}
	}
	if len(healthy) > 1 {
		k := int(sh.rr.Add(1) % uint64(len(healthy)))
		healthy = append(healthy[k:len(healthy):len(healthy)], healthy[:k]...)
	}
	order := make([]*corpusReplica, 0, len(sh.replicas))
	order = append(order, probing...)
	order = append(order, healthy...)
	order = append(order, suspect...)
	order = append(order, probation...)
	return order
}

// corpusView is the corpus's membership directory — document IDs in global
// insertion order and their shard assignment. It is immutable; mutations
// publish a fresh view, and every query pins exactly one (mirror of dbSnap).
type corpusView struct {
	ids  []string       // global document insertion order
	byID map[string]int // document ID → owning shard
	// byFirstDoc is every populated shard ranked by the directory position
	// of its first document (shards holding none last): under a limit the
	// scatter hands shards out in this order, so the shard holding the first
	// documents starts first and its prefix can cancel the rest.
	byFirstDoc []int
}

// newCorpusView builds a directory over ids (byID maps each to its shard)
// and ranks the shards for a limited scatter.
func newCorpusView(ids []string, byID map[string]int, shards []*corpusShard) *corpusView {
	cv := &corpusView{ids: ids, byID: byID}
	seen := make([]bool, len(shards))
	for _, id := range ids {
		if s := byID[id]; !seen[s] {
			seen[s] = true
			cv.byFirstDoc = append(cv.byFirstDoc, s)
		}
	}
	for s, sh := range shards {
		if sh != nil && !seen[s] {
			cv.byFirstDoc = append(cv.byFirstDoc, s)
		}
	}
	return cv
}

// Corpus is many documents behind one query surface: documents are
// distributed over shards by consistent hashing of their IDs, each shard
// stores its documents as one forest (reusing the paged, checksummed
// store and all indexes), and queries scatter across shards and gather in
// document order. The Corpus is the library's one facade: the paper's
// single document is a one-document corpus (one shard by default), and a
// corpus built with CorpusOptions.ShardWALFile is writable.
//
// Plans are optimized once per query against corpus-wide merged statistics
// and executed unchanged on every shard — correct because no structural
// relationship crosses a shard, so a corpus answer is exactly the
// concatenation of per-shard answers in document order.
type Corpus struct {
	shards []*corpusShard // one per ring shard; nil when no document hashed there
	ring   *shardring.Ring
	live   atomic.Pointer[corpusView]
	svc    *service // corpus-level: merged stats, plan cache, metrics, admission
	probe  core.ProbeEligibility

	// ingest marks a write-enabled corpus (CorpusOptions.ShardWALFile);
	// recoverTook is how long Build spent bringing the shards back from
	// their logs (they recover side by side), zero when every log was empty.
	ingest      bool
	recoverTook time.Duration

	// failovers counts shard queries re-issued on another replica after an
	// error, across all shards (the sjos_replica_failovers_total series);
	// pruned counts shards a scatter skipped because they cannot answer
	// (sjos_shards_pruned_total).
	failovers atomic.Uint64
	pruned    atomic.Uint64
}

// view returns the current membership directory; callers pin it once per
// operation.
func (c *Corpus) view() *corpusView { return c.live.Load() }

// CorpusBuilder accumulates documents for one Corpus. Add documents in the
// order results should be reported in, then call Build. The first failed Add
// also fails Build, so checking Build's error covers every Add.
type CorpusBuilder struct {
	opts CorpusOptions
	ids  []string
	docs []*xmltree.Document
	seen map[string]bool
	err  error
}

// NewCorpusBuilder starts a corpus build; opts may be nil for defaults.
func NewCorpusBuilder(opts *CorpusOptions) *CorpusBuilder {
	b := &CorpusBuilder{seen: make(map[string]bool)}
	if opts != nil {
		b.opts = *opts
	}
	return b
}

// add registers a parsed document under id. Errors are sticky: the first
// one fails the eventual Build.
func (b *CorpusBuilder) add(id string, doc *xmltree.Document, err error) error {
	if b.err != nil {
		return b.err
	}
	switch {
	case err != nil:
	case id == "":
		err = fmt.Errorf("sjos: corpus document needs a non-empty ID")
	case b.seen[id]:
		err = fmt.Errorf("sjos: duplicate corpus document ID %q", id)
	}
	if err != nil {
		b.err = err
		return err
	}
	b.seen[id] = true
	b.ids = append(b.ids, id)
	b.docs = append(b.docs, doc)
	return nil
}

// AddXML parses an XML document from r and adds it under id.
func (b *CorpusBuilder) AddXML(id string, r io.Reader) error {
	if b.err != nil {
		return b.err
	}
	doc, err := xmltree.Parse(r)
	return b.add(id, doc, err)
}

// AddXMLString is AddXML over a string.
func (b *CorpusBuilder) AddXMLString(id, src string) error {
	return b.AddXML(id, strings.NewReader(src))
}

// AddImage reads a binary document image (xqgen -format image writes them)
// and adds it under id; indexes and statistics are rebuilt on Build.
func (b *CorpusBuilder) AddImage(id string, r io.Reader) error {
	if b.err != nil {
		return b.err
	}
	doc, err := xmltree.ReadImage(r)
	return b.add(id, doc, err)
}

// AddDataset generates one of the synthetic benchmark data sets ("mbench",
// "dblp", "pers") at the given scale and folding factor with the given PRNG
// seed, and adds it under id. Distinct seeds produce distinct documents —
// the corpus-population path of the load generator.
func (b *CorpusBuilder) AddDataset(id, name string, scale float64, fold int, seed int64) error {
	if b.err != nil {
		return b.err
	}
	doc, err := datagen.Generate(datagen.Config{Name: name, Scale: scale, Seed: seed})
	if err == nil {
		doc = xmltree.Fold(doc, fold)
	}
	return b.add(id, doc, err)
}

// NumPending reports how many documents have been added so far.
func (b *CorpusBuilder) NumPending() int { return len(b.ids) }

// Build assigns the added documents to shards, appends each shard's members
// to one forest per replica, and constructs the per-shard engines plus the
// corpus-wide service and its statistics, merged from the members' parts.
func (b *CorpusBuilder) Build() (*Corpus, error) {
	if b.err != nil {
		return nil, b.err
	}
	writable := b.opts.ShardWALFile != nil
	if len(b.docs) == 0 && !writable {
		return nil, fmt.Errorf("sjos: corpus needs at least one document")
	}
	shards := b.opts.Shards
	if shards <= 0 {
		shards = min(max(len(b.docs), 1), runtime.GOMAXPROCS(0))
	}
	ring := shardring.New(shards, 0)

	c := &Corpus{
		shards: make([]*corpusShard, ring.Shards()),
		ring:   ring,
		svc:    newService(b.opts.MaxInFlight, b.opts.QueueDepth),
		ingest: writable,
	}
	ids := append([]string(nil), b.ids...)
	byID := make(map[string]int, len(b.ids))
	// Group documents by owning shard, preserving global insertion order
	// within each group.
	groups := make([][]seedDoc, len(c.shards))
	for gi, id := range b.ids {
		s := ring.Shard(id)
		byID[id] = s
		groups[s] = append(groups[s], seedDoc{id: id, doc: b.docs[gi]})
	}

	cfg := engineConfig{poolFrames: b.opts.PoolFrames, compactThr: b.opts.CompactThreshold}
	if cfg.compactThr == 0 {
		cfg.compactThr = DefaultCompactThreshold
	}
	repCfg := replica.Config{ProbeInterval: b.opts.ReplicaProbeInterval}
	replicas := max(b.opts.ReplicasPerShard, 1)

	// The files are resolved here, in shard order on the caller's goroutine:
	// ShardWALFile and ShardPageFile are the caller's code and were never
	// promised concurrent calls. A write-enabled corpus pre-creates every
	// ring shard — a later insert can hash anywhere; a static corpus skips
	// empty ones.
	type shardFiles struct {
		wal    PageFile
		stores []PageFile
	}
	files := make([]*shardFiles, len(groups))
	for s, group := range groups {
		if len(group) == 0 && !writable {
			continue
		}
		files[s] = &shardFiles{}
		for r := 0; r < replicas; r++ {
			var file PageFile
			if b.opts.ShardPageFile != nil {
				file = b.opts.ShardPageFile(s, r)
			}
			if file == nil {
				file = storage.NewMemFile()
			}
			files[s].stores = append(files[s].stores, file)
		}
		if writable {
			files[s].wal = b.opts.ShardWALFile(s)
		}
	}

	// Every shard is one engine per replica, written through or not: the
	// primary owns the shard's log when the corpus has a write path (a
	// read-only shard has none), and a follower copies the primary's live
	// members — which after a WAL recovery are not the builder's — without a
	// log of its own.
	buildShard := func(s int) (*corpusShard, error) {
		sh := &corpusShard{id: s}
		for r, file := range files[s].stores {
			seeds, wal := groups[s], files[s].wal
			if r > 0 {
				seeds, wal = sh.meta().liveDocs(), nil
			}
			eng, err := newEngine(seeds, wal, file, cfg)
			if err != nil {
				return nil, fmt.Errorf("sjos: building shard %d replica %d: %w", s, r, err)
			}
			sh.replicas = append(sh.replicas, &corpusReplica{eng: eng, health: replica.NewTracker(repCfg)})
		}
		if !writable {
			// Nothing will stage, log or compact a member again, and the
			// followers have copied theirs: the forests are the only copy
			// kept.
			for _, rep := range sh.replicas {
				rep.eng.release()
			}
		}
		return sh, nil
	}

	// Shards share nothing — own log, own store file — so their engines are
	// built, and their logs recovered, side by side on up to GOMAXPROCS
	// goroutines. Every build runs to its end; the first error in shard order
	// is the corpus's, and no corpus is returned beside it.
	began := time.Now()
	errs := make([]error, len(groups))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for s := range groups {
		if files[s] == nil {
			continue
		}
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			c.shards[s], errs[s] = buildShard(s)
			<-slots
		}()
	}
	wg.Wait()
	took := time.Since(began)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// A shard recovered from a non-empty WAL holds members the builder
	// never saw; fold them into the membership directory, in shard order.
	// Their global order is reconstructed shard-grouped (per-shard insertion
	// order is exact; the interleaving across shards is not logged).
	for s, sh := range c.shards {
		if sh == nil {
			continue
		}
		if sh.meta().recovered > 0 {
			c.recoverTook = took
		}
		for _, m := range sh.meta().view().members {
			if _, seen := byID[m.id]; !seen {
				ids = append(ids, m.id)
				byID[m.id] = s
			}
		}
	}

	c.probe = corpusProbe{shards: c.shards}
	c.live.Store(newCorpusView(ids, byID, c.shards))
	c.refreshStats()
	return c, nil
}

// refreshStats re-merges the corpus-wide statistics from every shard's
// histogram parts and installs them (bumping the stats version, which
// invalidates the plan cache) — once per committed mutation, whatever the
// replica count. Caller holds the write lock (or is still constructing the
// corpus).
func (c *Corpus) refreshStats() {
	var parts []*histogram.Stats
	for _, sh := range c.shards {
		if sh != nil {
			parts = append(parts, sh.meta().parts()...)
		}
	}
	c.svc.setStats(histogram.Merge(parts))
}

// corpusProbe aggregates per-shard value-index eligibility for the corpus
// planner: a probe is offered only when every populated shard can serve it
// (shards that cannot would silently fall back to scan+filter, which stays
// correct but would skew the shared plan's cost model), and the exact probe
// selectivity is the per-shard sum.
type corpusProbe struct {
	shards []*corpusShard
}

func (p corpusProbe) ProbeEligible(tag string, op pattern.CmpOp, value string) bool {
	any := false
	for _, sh := range p.shards {
		if sh == nil {
			continue
		}
		store := sh.meta().view().store
		if store.NumNodes() <= 1 {
			continue // write-enabled shard nothing has hashed to yet
		}
		if !store.ProbeEligible(tag, op, value) {
			return false
		}
		any = true
	}
	return any
}

func (p corpusProbe) ProbeSelectivity(tag string, op pattern.CmpOp, value string) (int, bool) {
	total, any := 0, false
	for _, sh := range p.shards {
		if sh == nil {
			continue
		}
		store := sh.meta().view().store
		if store.NumNodes() <= 1 {
			continue
		}
		n, ok := store.ProbeSelectivity(tag, op, value)
		if !ok {
			return 0, false
		}
		total += n
		any = true
	}
	return total, any
}

// NumShards returns the corpus's shard count (including shards no document
// hashed to).
func (c *Corpus) NumShards() int { return len(c.shards) }

// NumDocs returns the number of member documents.
func (c *Corpus) NumDocs() int { return len(c.view().ids) }

// DocIDs returns the document IDs in insertion order — the order results
// are reported in.
func (c *Corpus) DocIDs() []string { return append([]string(nil), c.view().ids...) }

// ShardOf reports which shard holds the document.
func (c *Corpus) ShardOf(docID string) (int, bool) {
	s, ok := c.view().byID[docID]
	return s, ok
}

// resolve translates a (document ID, document-local node ID) pair into the
// owning shard's current snapshot and the forest node ID.
func (c *Corpus) resolve(docID string, id NodeID) (*dbSnap, NodeID, bool) {
	s, ok := c.view().byID[docID]
	if !ok {
		return nil, 0, false
	}
	sn := c.shards[s].meta().view()
	mi, ok := sn.memberIdx[docID]
	if !ok || int(id) >= sn.members[mi].span.Nodes {
		return nil, 0, false
	}
	return sn, sn.members[mi].span.First + id, true
}

// TagName returns the element tag of a node of the given document, read
// from the document's current version: after a Replace or Delete, node IDs
// taken from an earlier result no longer describe it. To label the rows of a
// result, use that result's segments (DocSegment.TagName), which stay on
// the version the query ran on.
func (c *Corpus) TagName(docID string, id NodeID) (string, bool) {
	sn, gid, ok := c.resolve(docID, id)
	if !ok {
		return "", false
	}
	return sn.doc.TagName(sn.doc.Tag(gid)), true
}

// Value returns the text value of a node of the given document ("" if
// none), read from the document's current version like TagName.
func (c *Corpus) Value(docID string, id NodeID) (string, bool) {
	sn, gid, ok := c.resolve(docID, id)
	if !ok {
		return "", false
	}
	return sn.doc.Value(gid), true
}

// OptimizeContext picks a plan for pat against the corpus-wide merged
// statistics (summed tag counts and join estimates over all shards — exact
// at the corpus level because joins never cross shards), observing ctx in
// the search. The chosen plan executes unchanged on every shard (Run). It
// bypasses the plan cache, so repeated calls measure real search effort;
// cached optimization is the QueryContext path.
func (c *Corpus) OptimizeContext(ctx context.Context, pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	stats, _ := c.svc.snapshot()
	return optimizeWith(ctx, pat, stats, m, te, c.probe)
}

// CorpusMatch is one pattern match of a corpus query: the document it
// occurred in and the per-pattern-node bindings in that document's own
// node numbering — exactly the IDs a one-document corpus over the same
// document would report.
type CorpusMatch struct {
	// DocID and Doc identify the document (ID and insertion index).
	DocID string
	Doc   int
	// Nodes holds the matched document nodes, slot u = pattern node u. It
	// aliases the result's rows.
	Nodes Match
}

// DocSegment is one document's run of matches in a corpus result. Its rows
// are a window onto the owning shard's match set, rebased to the
// document's own node numbering, and it pins the shard snapshot the query
// ran on: TagName and Value describe exactly the version the rows were
// matched against, whatever Replace or Delete has committed since (and that
// version stays reachable for as long as the segment is).
type DocSegment struct {
	// DocID and Doc identify the document (ID and insertion index).
	DocID string
	Doc   int

	rows  exec.MatchSet
	snap  *dbSnap
	first NodeID // the document's first node inside snap.doc
}

// Len returns the number of matches in the segment.
func (s *DocSegment) Len() int { return s.rows.Len() }

// Row returns match i: slot u holds the node bound to pattern node u. The
// slice aliases the result's rows.
func (s *DocSegment) Row(i int) Match { return s.rows.Row(i) }

// TagName returns the element tag of a node of one of the segment's rows.
func (s *DocSegment) TagName(id NodeID) string {
	return s.snap.doc.TagName(s.snap.doc.Tag(s.first + id))
}

// Value returns the text value of a node of one of the segment's rows (""
// if none).
func (s *DocSegment) Value(id NodeID) string { return s.snap.doc.Value(s.first + id) }

// corpusMatches builds the []CorpusMatch compatibility view of a segment
// table: one header slice whose Nodes alias the segments' rows.
func corpusMatches(segs []DocSegment, count int) []CorpusMatch {
	out := make([]CorpusMatch, 0, count)
	for i := range segs {
		seg := &segs[i]
		for r, n := 0, seg.Len(); r < n; r++ {
			out = append(out, CorpusMatch{DocID: seg.DocID, Doc: seg.Doc, Nodes: seg.Row(r)})
		}
	}
	return out
}

// CorpusRunResult is the outcome of one Corpus.Run call.
type CorpusRunResult struct {
	// Segments holds the matches as one entry per document that has any,
	// in document insertion order; inside a segment the rows are in that
	// document's standalone match order (nil if CountOnly).
	Segments []DocSegment
	// Matches is the same result as one CorpusMatch per row — a view whose
	// Nodes alias the segments' rows (nil if CountOnly).
	Matches []CorpusMatch
	// Count is the number of matches produced.
	Count int
	// Stats merges the physical work of every shard execution.
	Stats ExecStats
	// Trace is the plan-shaped trace with all shards' operators merged
	// (nil unless QueryOptions.Trace).
	Trace *OpTrace
	// ShardsQueried is the number of populated shards the query was
	// scattered to, the ones pruned before dispatch included.
	ShardsQueried int
}

// errCorpusLimit marks a scatter cancellation caused by the corpus-level
// Limit being satisfied — shards cancelled for this reason are not errors.
var errCorpusLimit = errors.New("sjos: corpus limit satisfied")

// Run executes one plan on every populated shard and gathers the results
// in document order. It is the single execution entry point: limits,
// count-only projection and per-operator tracing are all QueryOptions, and
// every run observes ctx — cancelling it makes Run return promptly with
// ctx's error (index scans, buffer-pool retry waits and output loops poll
// it). A nil ctx is context.Background(). Within the scatter, min(#populated
// shards, GOMAXPROCS) shards execute concurrently, each on one goroutine; the
// first shard error cancels the rest and Run returns that error with no
// partial results, and under opts.Limit the remaining shards are cancelled
// as soon as a document-order prefix of gathered results satisfies the
// limit.
//
// Run is also the resilience boundary. When the corpus was built with an
// in-flight limit (Options.MaxInFlight) each call first claims an admission
// slot, waiting in the bounded queue; past the queue it fails fast with
// ErrOverloaded, and after Drain began with ErrShuttingDown. A panic
// anywhere under Run is recovered into a *PanicError (stack attached,
// counted in metrics and recorded in the slow-query ring) instead of
// crashing the process. Every Run is observed by the metrics registry
// (queries served, in-flight gauge, latency histogram; see Metrics).
func (c *Corpus) Run(ctx context.Context, pat *Pattern, p *Plan, opts QueryOptions) (*CorpusRunResult, error) {
	res, err := c.run(ctx, pat, p, opts)
	if err == nil && !opts.CountOnly {
		res.Matches = corpusMatches(res.Segments, res.Count)
	}
	return res, err
}

// run is Run without the []CorpusMatch view: the scatter inside the read
// envelope, its result carrying Segments only. The envelope claims an
// admission slot, observes the run in the metrics registry and recovers a
// panic anywhere under the scatter into a *PanicError.
func (c *Corpus) run(ctx context.Context, pat *Pattern, p *Plan, opts QueryOptions) (res *CorpusRunResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := c.svc
	release, err := s.admit.Acquire(ctx)
	if err != nil {
		// Shed load before it becomes work: rejected queries never reach
		// the metrics' served/latency counters (they have no execution to
		// measure); admission keeps its own rejected/queued counters.
		return nil, err
	}
	defer release()
	s.metrics.QueryStarted()
	t0 := time.Now()
	defer func() {
		if perr := exec.RecoverPanic(recover()); perr != nil {
			res, err = nil, perr
			s.recordPanic(pat, perr)
		}
		s.metrics.QueryFinished(time.Since(t0), err)
		if res != nil {
			s.metrics.ExecBatched(res.Stats.Batches, res.Stats.SkippedTuples)
		}
	}()
	if hook := s.testHookRun; hook != nil {
		hook()
	}
	return c.scatter(ctx, pat, p, opts)
}

// rowRange is a half-open run of rows [lo, hi) of a match set.
type rowRange struct{ lo, hi int }

// shardOut is one shard's gathered output: the raw run result, the replica
// snapshot it ran on, and where each member document's rows lie in the
// result's match set (indexed like snap.members — member indices are only
// stable within the pinned snapshot; nil under pushed-down CountOnly).
type shardOut struct {
	res  *shardResult
	snap *dbSnap
	rows []rowRange
}

// segment returns the document's slice of the shard's output (empty when
// the pinned snapshot does not hold the document — directory/snapshot skew
// under mutations).
func (so *shardOut) segment(id string, gi int) DocSegment {
	seg := DocSegment{DocID: id, Doc: gi, snap: so.snap}
	if mi, ok := so.snap.memberIdx[id]; ok {
		seg.first = so.snap.members[mi].span.First
		seg.rows = so.res.set.Slice(so.rows[mi].lo, so.rows[mi].hi)
	}
	return seg
}

// cannotMatch reports whether pat has no match on the snapshot: some pattern
// node's tag has no postings in it, or the node's value predicate is served
// by an index probe with no hits there. It reads the in-memory tag and value
// directories only — no page, no I/O.
//
// Pruning a shard on it is exact. Every plan is a tree of inner structural
// joins with one scan per pattern node, so a node without candidates empties
// the shard's answer whatever the plan; an eligible probe returns exactly the
// nodes scan+filter keeps, so one with no hits is such a node. The snapshot
// checked is the primary's current one, so "empty" is the shard's answer on a
// committed version, as a routed execution's is on the version its replica
// pins; and the gather already tolerates skew between the directory and the
// shards' snapshots.
func cannotMatch(sn *dbSnap, pat *Pattern) bool {
	for _, nd := range pat.Nodes {
		t, ok := sn.doc.LookupTag(nd.Tag)
		if !ok || sn.store.TagCount(t) == 0 {
			return true
		}
		if nd.Op != pattern.CmpNone {
			if n, ok := sn.store.ProbeSelectivity(nd.Tag, nd.Op, nd.Value); ok && n == 0 {
				return true
			}
		}
	}
	return false
}

// prune is the scatter's check before dispatch: every shard of order where
// pat cannotMatch on the primary's current snapshot is marked done, with no
// rows, and the rest are returned in order. It reads in-memory directories
// only: it neither routes nor touches replica health.
func (c *Corpus) prune(order []int, pat *Pattern, done []bool) []int {
	run := make([]int, 0, len(order))
	for _, si := range order {
		if cannotMatch(c.shards[si].meta().view(), pat) {
			done[si] = true
		} else {
			run = append(run, si)
		}
	}
	return run
}

// scatter is Run without the admission/metrics/recovery envelope.
func (c *Corpus) scatter(ctx context.Context, pat *Pattern, p *Plan, opts QueryOptions) (*CorpusRunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cv := c.view()
	// Without a limit every shard runs to its end and the order only splits
	// the work over the workers: shard-index order.
	order := cv.byFirstDoc
	if opts.Limit <= 0 {
		order = make([]int, 0, len(c.shards))
		for i, sh := range c.shards {
			if sh != nil {
				order = append(order, i)
			}
		}
	}
	out := &CorpusRunResult{ShardsQueried: len(order)}

	shOpts := opts
	// A corpus Limit k is served by per-shard limit k: any plan's output is
	// in document-position order and members occupy disjoint ascending
	// ranges, so each shard's first k matches cover every possible prefix
	// contribution. Count-only is pushed down only when no demux is needed
	// (gathering a limited prefix requires the matches to attribute them to
	// documents).
	shOpts.CountOnly = opts.CountOnly && opts.Limit <= 0

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		results  = make([]*shardOut, len(c.shards))
		done     = make([]bool, len(c.shards))
	)
	run := c.prune(order, pat, done)
	if n := len(order) - len(run); n > 0 {
		c.pruned.Add(uint64(n))
	}
	// checkLimit (mu held): walk documents in global order while their
	// shard has finished, accumulating gathered matches; once a prefix
	// satisfies the limit the still-running shards can only contribute
	// matches past the cutoff, so cancel them.
	checkLimit := func() {
		if opts.Limit <= 0 || firstErr != nil {
			return
		}
		total := 0
		for _, id := range cv.ids {
			si := cv.byID[id]
			if !done[si] {
				return
			}
			if so := results[si]; so != nil {
				seg := so.segment(id, 0)
				total += seg.Len()
			}
			if total >= opts.Limit {
				cancel(errCorpusLimit)
				return
			}
		}
	}
	runShard := func(si int) {
		r, sn, err := c.runShardReplicated(runCtx, c.shards[si], pat, p, shOpts)
		mu.Lock()
		defer mu.Unlock()
		done[si] = true
		if err != nil {
			// A shard cancelled because the corpus limit was already
			// satisfied did not fail; anything else is the query's error.
			if context.Cause(runCtx) != errCorpusLimit && firstErr == nil {
				firstErr = err
				cancel(nil)
			}
			return
		}
		so := &shardOut{res: r, snap: sn}
		if !shOpts.CountOnly {
			so.rows = demux(sn.members, r.set)
		}
		results[si] = so
		checkLimit()
	}

	// The workers take the surviving shards off one cursor in dispatch
	// order. The calling goroutine is one of them: a lone surviving shard,
	// or every shard under GOMAXPROCS 1, runs on it with no goroutine
	// started.
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(run)); i = next.Add(1) - 1 {
			runShard(run[i])
		}
	}
	workers := min(len(run), runtime.GOMAXPROCS(0))
	wg.Add(max(workers-1, 0))
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}

	// Gather: merge per-shard statistics and traces, then table the
	// segments by walking documents in global insertion order — each
	// document's rows come whole from its shard, already in standalone
	// order, and are referenced where they lie, not copied.
	for _, si := range run {
		so := results[si]
		if so == nil {
			continue // cancelled by the satisfied limit; not part of the prefix
		}
		out.Stats.Add(so.res.Stats)
		if so.res.Trace != nil {
			if out.Trace == nil {
				out.Trace = so.res.Trace
			} else {
				out.Trace.Merge(so.res.Trace)
			}
		}
		if shOpts.CountOnly {
			out.Count += so.res.Count
		}
	}
	if opts.Trace && out.Trace == nil {
		// No shard ran: the trace is the plan's shape with zero actuals.
		tr, err := exec.PlanTrace(pat, p)
		if err != nil {
			return nil, err
		}
		out.Trace = tr
	}
	if shOpts.CountOnly {
		return out, nil
	}
	segs := make([]DocSegment, 0, len(cv.ids))
	for gi, id := range cv.ids {
		so := results[cv.byID[id]]
		if so == nil {
			continue
		}
		seg := so.segment(id, gi)
		if opts.Limit > 0 && out.Count+seg.Len() > opts.Limit {
			seg.rows = seg.rows.Slice(0, opts.Limit-out.Count)
		}
		if seg.Len() == 0 {
			continue
		}
		segs = append(segs, seg)
		out.Count += seg.Len()
		if opts.Limit > 0 && out.Count >= opts.Limit {
			break
		}
	}
	if !opts.CountOnly {
		out.Segments = segs
	}
	return out, nil
}

// runReplicaOnce executes the shard plan on one replica. A scatter runs
// shards on worker goroutines, outside Run's recovery scope — recover here
// so a panicking replica surfaces as a typed error (and a failover
// opportunity), not a process crash.
func runReplicaOnce(ctx context.Context, rep *corpusReplica, pat *Pattern, p *Plan, opts QueryOptions) (r *shardResult, sn *dbSnap, err error) {
	defer func() {
		if perr := exec.RecoverPanic(recover()); perr != nil {
			r, err = nil, perr
		}
	}()
	// Pin the replica's snapshot here and run on it explicitly: the
	// scatter's demux must rebase matches against the exact member table
	// the query saw, not whatever a concurrent mutation publishes next.
	sn = rep.eng.view()
	r, err = rep.eng.runOn(ctx, sn, pat, p, opts)
	return r, sn, err
}

// runShardReplicated serves one shard's slice of a scatter from its replica
// set: it tries the replicas in routeOrder, one at a time, and the first
// success serves the shard. A success resets that replica's health; an error
// advances its state machine and fails over to the next. An error after the
// scatter itself was cancelled (limit satisfied, caller gone) is not the
// replica's fault: it returns at once and leaves health untouched.
func (c *Corpus) runShardReplicated(ctx context.Context, sh *corpusShard, pat *Pattern, p *Plan, opts QueryOptions) (*shardResult, *dbSnap, error) {
	// routeOrder always holds the primary, so err is set when the loop ends.
	var err error
	for _, rep := range sh.routeOrder(time.Now()) {
		if err != nil {
			c.failovers.Add(1)
		}
		var r *shardResult
		var sn *dbSnap
		if r, sn, err = runReplicaOnce(ctx, rep, pat, p, opts); err == nil {
			rep.health.RecordSuccess()
			return r, sn, nil
		}
		if ctx.Err() != nil {
			return nil, nil, err
		}
		rep.health.RecordFailure()
	}
	return nil, nil, err
}

// demux splits one shard's match set by member document and rebases every
// binding into the member's own node numbering, in place. Any plan's output
// is ordered by the document position of one of its columns and a match lies
// wholly inside one member, so the members — which occupy ascending disjoint
// node ranges — own consecutive runs of rows, in member order: one binary
// search on the root column per member boundary finds them. Rows no member
// owns (the synthetic forest root) fall between runs and are left out.
func demux(members []memberView, set exec.MatchSet) []rowRange {
	n := set.Len()
	// from returns the first row at or after lo whose root node is >= id.
	from := func(lo int, id NodeID) int {
		return lo + sort.Search(n-lo, func(k int) bool { return set.Row(lo + k)[0] >= id })
	}
	out := make([]rowRange, len(members))
	hi := 0
	for m, mv := range members {
		lo := from(hi, mv.span.First)
		hi = from(lo, mv.span.First+NodeID(mv.span.Nodes))
		out[m] = rowRange{lo, hi}
		for i := lo; i < hi; i++ {
			row := set.Row(i)
			for u := range row {
				row[u] -= mv.span.First
			}
		}
	}
	return out
}

// CorpusQueryResult is the outcome of a QueryContext call: the matches
// plus the planned-query report (Plan, PlanText, EstCost, CachedPlan,
// OptimizeTime, ExecuteTime, PlansConsidered, Exec, Trace — one plan,
// optimized against the corpus-wide statistics, executed on every shard).
type CorpusQueryResult struct {
	// Segments holds the matches as one entry per document that has any,
	// in insertion order (see CorpusRunResult.Segments).
	Segments []DocSegment
	// Count is the number of matches produced.
	Count int
	planned
	// ShardsQueried is the number of populated shards scattered to, the
	// ones pruned before dispatch included.
	ShardsQueried int
}

// QueryContext parses src, optimizes it through the corpus plan cache and
// scatter-executes the chosen plan, observing ctx in both phases:
// cancellation aborts the optimizer search or the execution, whichever is
// running, and QueryContext returns ctx's error. The rows are read from the
// result's Segments; OptimizeContext plus Run is the same query with a fresh
// optimizer run instead of the cache.
func (c *Corpus) QueryContext(ctx context.Context, src string, opts QueryOptions) (*CorpusQueryResult, error) {
	pat, err := ParsePattern(src)
	if err != nil {
		return nil, err
	}
	return c.queryPattern(ctx, pat, opts)
}

// queryPattern is the one planned-query core: optimize pat through the plan
// cache, scatter-execute the chosen plan through the read envelope, then
// apply the slow-query policy. When a slow-query log is configured the query
// runs with per-operator tracing so a threshold-crossing entry can attribute
// its time.
func (c *Corpus) queryPattern(ctx context.Context, pat *Pattern, opts QueryOptions) (*CorpusQueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	thr, slowFn := c.svc.slow.config()
	t0 := time.Now()
	res, text, cached, err := c.svc.optimizePattern(ctx, pat, c.probe, opts.Method)
	if err != nil {
		return nil, err
	}
	optTime := time.Since(t0)
	t1 := time.Now()
	opts.Trace = opts.Trace || thr > 0
	rr, err := c.run(ctx, pat, res.Plan, opts)
	if err != nil {
		return nil, fmt.Errorf("sjos: executing %v plan: %w", opts.Method, err)
	}
	execTime := time.Since(t1)
	c.svc.maybeLogSlow(pat, opts.Method, thr, slowFn, optTime, execTime, rr.Count, rr.Stats, rr.Trace, cached)
	return &CorpusQueryResult{
		Segments:      rr.Segments,
		Count:         rr.Count,
		ShardsQueried: rr.ShardsQueried,
		planned: planned{
			Plan:            res.Plan,
			PlanText:        text,
			EstCost:         res.Cost,
			Algorithm:       res.Algorithm,
			CachedPlan:      cached,
			OptimizeTime:    optTime,
			ExecuteTime:     execTime,
			PlansConsidered: res.Counters.PlansConsidered,
			Exec:            rr.Stats,
			Trace:           rr.Trace,
		},
	}, nil
}

// ReplicaHealth is one replica's health snapshot inside a ShardHealth.
type ReplicaHealth struct {
	// Replica is the replica index within its shard.
	Replica int
	// State is the routing state ("healthy", "suspect", "probation").
	State string
	// ConsecutiveFailures is the current failure run; Failures and
	// Successes are lifetime counters.
	ConsecutiveFailures int
	Failures            uint64
	Successes           uint64
	// Down marks a write-path follower permanently removed from routing
	// after failing to apply a committed mutation.
	Down bool
	// Pool is this replica's own buffer-pool counters.
	Pool PoolStats
	// FaultsInjected counts faults this replica's page file injected, when
	// it sits on a fault-injecting file (chaos mode); 0 otherwise.
	FaultsInjected uint64
}

// ShardHealth is one shard's health snapshot.
type ShardHealth struct {
	// Shard is the shard index; Docs and Nodes its document and element
	// node populations (0 for shards no document hashed to).
	Shard int
	Docs  int
	Nodes int
	// Pool sums the buffer-pool counters of every replica of this shard
	// (zero for empty shards).
	Pool PoolStats
	// Content reports the shard's content-index counters: the index
	// structure (runs, tags, bytes) from the metadata replica — every
	// replica indexes the same forest — with the dynamic probe/decode
	// counters summed across replicas.
	Content ContentStats
	// FaultsInjected sums the injected-fault counters of every replica.
	FaultsInjected uint64
	// Replicas holds the per-replica state, replica 0 first (nil for empty
	// shards).
	Replicas []ReplicaHealth
}

// Health reports a per-shard health snapshot, one entry per shard
// (including empty ones) — the payload of xqserve's /healthz.
func (c *Corpus) Health() []ShardHealth {
	out := make([]ShardHealth, len(c.shards))
	for i, sh := range c.shards {
		out[i].Shard = i
		if sh == nil {
			continue
		}
		sn := sh.meta().view()
		out[i].Docs = len(sn.members)
		for _, m := range sn.members {
			out[i].Nodes += m.span.Nodes
		}
		out[i].Content = sn.store.ContentStats()
		out[i].Content.ValueProbes = 0
		out[i].Content.BlocksDecoded = 0
		for r, rep := range sh.replicas {
			store := rep.eng.view().store
			hs := rep.health.Snapshot()
			rh := ReplicaHealth{
				Replica:             r,
				State:               hs.State.String(),
				ConsecutiveFailures: hs.ConsecutiveFailures,
				Failures:            hs.Failures,
				Successes:           hs.Successes,
				Down:                rep.down.Load(),
				Pool:                store.PoolStats(),
			}
			if ff, ok := store.File().(interface{ FaultsInjected() uint64 }); ok {
				rh.FaultsInjected = ff.FaultsInjected()
			}
			cst := store.ContentStats()
			out[i].Content.ValueProbes += cst.ValueProbes
			out[i].Content.BlocksDecoded += cst.BlocksDecoded
			out[i].Pool.Hits += rh.Pool.Hits
			out[i].Pool.Misses += rh.Pool.Misses
			out[i].Pool.Evicted += rh.Pool.Evicted
			out[i].Pool.Resident += rh.Pool.Resident
			out[i].Pool.Pinned += rh.Pool.Pinned
			out[i].Pool.Retries += rh.Pool.Retries
			out[i].Pool.ChecksumFailures += rh.Pool.ChecksumFailures
			out[i].FaultsInjected += rh.FaultsInjected
			out[i].Replicas = append(out[i].Replicas, rh)
		}
	}
	return out
}

// Drain flips the corpus into shutdown: queries and mutations arriving
// after Drain begins fail fast with ErrShuttingDown, and Drain returns once
// every in-flight one has finished — or ctx's error if they have not by then
// (calling Drain again resumes waiting). Without a configured MaxInFlight
// there is no admission barrier and Drain returns immediately; it is the
// graceful-exit step for servers built with one (see cmd/xqserve).
func (c *Corpus) Drain(ctx context.Context) error { return c.svc.admit.Drain(ctx) }

// RebuildStats recomputes every shard's histogram parts from their
// documents and re-merges them into fresh corpus-wide statistics — the
// ground truth the incrementally maintained statistics must match — and
// invalidates the plan cache. Plans optimized before the rebuild remain
// executable; they are simply no longer served from the cache.
func (c *Corpus) RebuildStats() {
	c.svc.wmu.Lock()
	defer c.svc.wmu.Unlock()
	for _, sh := range c.shards {
		if sh != nil {
			sh.meta().rebuildParts()
		}
	}
	c.refreshStats()
}

// SetSlowQueryLog configures the corpus's slow-query log: every
// QueryContext / XQueryContext call whose total latency
// reaches threshold is recorded in an in-memory ring (see SlowQueries) and
// reported to fn, if non-nil. While a threshold is active those queries run
// with per-operator tracing enabled so the log can attribute the time; that
// instrumentation costs a few percent per query. threshold <= 0 disables the
// log.
func (c *Corpus) SetSlowQueryLog(threshold time.Duration, fn func(SlowQueryEntry)) {
	c.svc.slow.mu.Lock()
	c.svc.slow.threshold = threshold
	c.svc.slow.fn = fn
	c.svc.slow.mu.Unlock()
}

// SlowQueries returns the corpus's most recent slow-query log entries,
// oldest first (at most 32 are retained).
func (c *Corpus) SlowQueries() []SlowQueryEntry { return c.svc.slow.entries() }

// Metrics returns a corpus-level observability snapshot: query counters,
// plan cache and admission are the corpus's own; buffer-pool, content and
// fault counters aggregate every shard.
func (c *Corpus) Metrics() Metrics {
	m := Metrics{
		Query:     c.svc.metrics.Snapshot(),
		Cache:     c.svc.cache.Stats(),
		Admission: c.svc.admit.Stats(),
	}
	m.Replica.Failovers = c.failovers.Load()
	m.Replica.ShardsPruned = c.pruned.Load()
	ist := c.IngestStats()
	m.Compactions, m.WALPages = ist.Compactions, ist.WALPages
	m.RecoveredTxns, m.RecoverySeconds = ist.RecoveredTxns, ist.RecoverySeconds
	for _, sh := range c.shards {
		if sh == nil {
			continue
		}
		for _, rep := range sh.replicas {
			if rep.health.State() != replica.Healthy {
				m.Replica.Suspect++
			}
		}
	}
	for _, h := range c.Health() {
		m.Pool.Hits += h.Pool.Hits
		m.Pool.Misses += h.Pool.Misses
		m.Pool.Evicted += h.Pool.Evicted
		m.Pool.Resident += h.Pool.Resident
		m.Pool.Pinned += h.Pool.Pinned
		m.Pool.Retries += h.Pool.Retries
		m.Pool.ChecksumFailures += h.Pool.ChecksumFailures
		m.FaultsInjected += h.FaultsInjected
		m.Content.ValueRuns += h.Content.ValueRuns
		m.Content.NumericTags += h.Content.NumericTags
		m.Content.ValueProbes += h.Content.ValueProbes
		m.Content.BlocksDecoded += h.Content.BlocksDecoded
		m.Content.PostingsBytes += h.Content.PostingsBytes
		m.Content.RawPostingsBytes += h.Content.RawPostingsBytes
		m.Content.Intern.Strings += h.Content.Intern.Strings
		m.Content.Intern.Hits += h.Content.Intern.Hits
		m.Content.Intern.Misses += h.Content.Intern.Misses
		m.Content.Intern.BytesSaved += h.Content.Intern.BytesSaved
	}
	return m
}

// WriteMetrics renders the corpus's counters in the Prometheus text
// exposition format (metric prefix "sjos").
func (c *Corpus) WriteMetrics(w io.Writer) {
	writeMetricsText(w, c.Metrics())
}
