package sjos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"sjos/internal/exec"
	"sjos/internal/histogram"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// The storage engine: the one object that owns stored documents — one per
// replica of every Corpus shard. It holds the published snapshot, executes
// plans against a pinned snapshot, keeps the histogram parts statistics are
// merged from, and runs the commit protocol.
// It holds nothing a query service needs — no plan cache, metrics, admission
// or merged statistics; those are one per corpus (see service).
//
// An engine stores its documents as members of an appendable forest, one
// store segment per member, and every mutation follows one commit protocol:
//
//  1. Stage: the new member is serialised into sealed pages without touching
//     the store file (deletes stage nothing — they only flip a segment dead).
//  2. Log: a WAL transaction (a begin record with the member document as an
//     SJDOC2 image, the SHA-256 digest of the staged pages, a commit record)
//     is appended and fsynced. The mutation is durable exactly when the
//     commit record is; a torn or missing tail is discarded on recovery.
//  3. Apply: the staged pages are written to the store file and a new
//     immutable (document, store) snapshot is published atomically. In-flight
//     queries finish on the snapshot they pinned.
//
// The log is logical redo: it carries each document once and no store page.
// Recovery streams the log, keeps what follows the last base snapshot,
// re-stages every logged document through the same grow path a live commit
// takes, and holds each stage to the digest its transaction logged — so a
// replay that would lay a document out differently from the commit that
// logged it (the layout code changed under the log, or the logged document
// did) fails loudly instead of serving different pages. Staging is a pure
// function of the append sequence, which is what makes the digest as strong
// a check as comparing the pages: equal digests are equal pages. Logs written
// before stage digests carry the staged pages themselves; recovery reads
// those too and compares them byte for byte. Nothing writes them any more.
//
// A failure before the WAL commit leaves the engine unchanged and usable.
// A failure after it (the apply could not complete, or the fsync outcome is
// unknowable) poisons the write path — mutations fail with ErrBroken, reads
// continue on the last published snapshot, and rebuilding the corpus from
// its logs recovers the exact committed state.

// dbSnap is one immutable (document, store) version of an engine. An engine
// publishes a fresh snapshot per committed mutation, and every query pins one
// snapshot for its whole run — readers never observe a half-applied write.
type dbSnap struct {
	doc   *xmltree.Document
	store *storage.Store
	// members lists a forest's live member documents in node-range order, and
	// memberIdx finds one by ID: the membership view consistent with exactly
	// this store version (the corpus demux depends on that).
	members   []memberView
	memberIdx map[string]int
}

// memberView is one live member's identity and node range inside a snapshot.
type memberView struct {
	id   string
	span xmltree.DocSpan
}

// memberState is the engine's bookkeeping for one member document: the
// standalone document (staging, re-logging and statistics rebuilds need it;
// nil once a read-only corpus has released it, see release), its node span,
// its segment index in the store, and its statistics part. Dead members stay
// in the table (spans stay allocated until compaction) but leave every
// published view.
type memberState struct {
	id   string
	doc  *xmltree.Document
	span xmltree.DocSpan
	seg  int
	part *histogram.Stats
	dead bool
}

// engineConfig is the construction-time settings an engine builds its
// stores with; compaction and recovery rebuilds reuse them (see
// CorpusOptions.CompactThreshold).
type engineConfig struct {
	poolFrames int
	compactThr float64
}

type engine struct {
	// snap is the current published snapshot; mutations replace it
	// atomically after commit, so reads are lock-free.
	snap atomic.Pointer[dbSnap]
	engineConfig

	// Everything below is the write path's state. The engine does no locking
	// of its own: the owning corpus's write lock (service.wmu) guards it —
	// single writer; readers never touch it, they use the published snapshot.

	// wal is the durable log, and an engine with one is the only kind a
	// corpus writes through. nil on the shards of a read-only corpus, and on
	// replica followers, which apply the primary's already-committed
	// mutations without logging.
	wal *storage.WAL
	// forest is the appendable document mutations extend.
	forest *xmltree.Document
	// members is append-only between compactions, in span order; byID
	// indexes the live ones.
	members []*memberState
	byID    map[string]int
	// broken poisons the write path (see ErrBroken).
	broken      error
	compactions int
	// images is where log serialises a transaction's documents, kept between
	// transactions so an image is written into memory that is already there.
	images []byte
	// recovered is how many logged transactions the open replayed (the last
	// base snapshot and everything after it); zero on a fresh log.
	recovered int
}

// view returns the current snapshot. Callers that touch both the document
// and the store of one logical version must call view once and use the
// returned pair.
func (e *engine) view() *dbSnap { return e.snap.Load() }

// seedDoc is one (ID, document) pair a fresh engine starts with.
type seedDoc struct {
	id  string
	doc *xmltree.Document
}

// newEngine builds a corpus shard's engine on the (fresh) store file.
// With an empty WAL the seeds become the initial members and the log is
// seeded with a base snapshot holding them; with a non-empty WAL the state is
// recovered from the log instead, and seeds must be absent (the log is
// self-contained; mixing both would be ambiguous). A nil walFile builds a
// log-less engine over the seeds: the shard of a read-only corpus, or a
// replica follower, which applies its primary's committed mutations.
func newEngine(seeds []seedDoc, walFile, file PageFile, cfg engineConfig) (*engine, error) {
	e := &engine{engineConfig: cfg}
	var replay []storage.WALTxn
	if walFile != nil {
		var err error
		if replay, err = e.openLog(walFile); err != nil {
			return nil, fmt.Errorf("sjos: opening WAL: %w", err)
		}
		if len(replay) > 0 && len(seeds) > 0 {
			return nil, fmt.Errorf("sjos: WAL already holds committed transactions; build the corpus without documents to recover")
		}
	}
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("sjos: ingestion store file must be fresh (the WAL is the durable state); got %d pages", file.NumPages())
	}
	var store *storage.Store
	var err error
	if len(replay) > 0 {
		store, err = e.recover(replay, file)
		e.recovered = len(replay)
	} else {
		store, err = e.bootstrap(seeds, file)
	}
	if err != nil {
		return nil, err
	}
	e.publishLive(store)
	return e, nil
}

// openLog opens the WAL and returns the committed transactions a recovery
// replays: the last base snapshot and everything after it. The scan streams —
// whatever precedes a snapshot is dropped the moment the snapshot is seen —
// so an open holds the log's live suffix, not its history. A transient read
// failure restarts the scan under the buffer pool's default retry policy.
func (e *engine) openLog(walFile PageFile) ([]storage.WALTxn, error) {
	var replay []storage.WALTxn
	err := storage.DefaultRetryPolicy.Do(context.TODO(), func() error {
		replay = nil
		var err error
		e.wal, err = storage.ScanWAL(walFile, func(tx storage.WALTxn) error {
			if tx.Op == storage.WALSnapshot {
				replay = nil // nothing before a base snapshot is replayed
			}
			replay = append(replay, tx)
			return nil
		})
		return err
	})
	return replay, err
}

// reset points the write-path state at an empty forest laid down on file.
func (e *engine) reset(file PageFile) (*storage.Store, error) {
	e.forest = xmltree.NewForest()
	e.members, e.byID = nil, make(map[string]int)
	return storage.BuildStoreOn(file, e.forest, e.poolFrames)
}

// grow appends one member through the staging path every store build
// shares — live commit, initial build, recovery replay and compaction — so
// the layout is a pure function of the append sequence. between runs after
// the member is staged and before its pages are applied: the WAL append on
// the live path, stage verification on replay. A nil part is built from doc.
// The write-path state changes only on success.
func (e *engine) grow(store *storage.Store, id string, doc *xmltree.Document, part *histogram.Stats, between func(*storage.SegmentStage) error) (*storage.Store, error) {
	forest, span, err := xmltree.AppendMember(e.forest, doc)
	if err != nil {
		return nil, err
	}
	stage, err := store.StageSegment(forest, span)
	if err != nil {
		return nil, err
	}
	if between != nil {
		if err := between(stage); err != nil {
			return nil, err
		}
	}
	if store, err = store.CommitStage(stage); err != nil {
		return nil, err
	}
	if part == nil {
		part = histogram.Build(doc, 0)
	}
	e.forest = forest
	e.byID[id] = len(e.members)
	e.members = append(e.members, &memberState{id: id, doc: doc, span: span, seg: store.NumSegments() - 1, part: part})
	return store, nil
}

// drop flips the member in slot dead. Its segment's postings leave every
// index view; the pages are reclaimed by the next compaction.
func (e *engine) drop(store *storage.Store, slot int) (*storage.Store, error) {
	m := e.members[slot]
	store, err := store.DropSegment(e.forest, m.seg)
	if err != nil {
		return nil, err
	}
	m.dead = true
	// A replace has already pointed the ID at the new version's slot.
	if e.byID[m.id] == slot {
		delete(e.byID, m.id)
	}
	return store, nil
}

// bootstrap lays a fresh forest store down for the seed members and, when a
// WAL is attached, seeds the log with a base snapshot holding them — the
// record recovery replays from, making the WAL self-contained.
func (e *engine) bootstrap(seeds []seedDoc, file PageFile) (*storage.Store, error) {
	store, err := e.reset(file)
	if err != nil {
		return nil, err
	}
	for _, sd := range seeds {
		if store, err = e.grow(store, sd.id, sd.doc, nil, nil); err != nil {
			return nil, err
		}
	}
	if err := e.log(storage.WALSnapshot, e.liveDocs(), nil); err != nil {
		return nil, fmt.Errorf("sjos: seeding WAL base snapshot: %w", err)
	}
	return store, nil
}

// recover rebuilds the state from the log's live suffix (see openLog): the
// member set of the base snapshot is rebuilt through the ordinary staging
// path, then each later transaction is replayed the same way — with the
// re-staged pages held to what the transaction logged about them (their
// digest; in a log from before digests, the pages themselves) before they are
// applied. The result is exactly the pre-crash committed state.
func (e *engine) recover(replay []storage.WALTxn, file PageFile) (*storage.Store, error) {
	if replay[0].Op != storage.WALSnapshot {
		return nil, fmt.Errorf("sjos: WAL holds no base snapshot; not a database log")
	}
	store, err := e.reset(file)
	if err != nil {
		return nil, err
	}
	add := func(wd storage.WALDoc, verify func(*storage.SegmentStage) error) error {
		doc, err := xmltree.DecodeImage(wd.Image)
		if err == nil {
			store, err = e.grow(store, wd.ID, doc, nil, verify)
		}
		if err != nil {
			return fmt.Errorf("sjos: recovering document %q: %w", wd.ID, err)
		}
		return nil
	}
	for _, wd := range replay[0].Docs {
		if err := add(wd, nil); err != nil {
			return nil, err
		}
	}
	for _, tx := range replay[1:] {
		if tx.Op != storage.WALInsert && tx.Op != storage.WALDelete && tx.Op != storage.WALReplace {
			return nil, fmt.Errorf("sjos: WAL replay: unexpected op %d", tx.Op)
		}
		wd := tx.Docs[0]
		if tx.Op != storage.WALInsert {
			slot, ok := e.byID[wd.ID]
			if !ok {
				return nil, fmt.Errorf("sjos: WAL replay: op %d of unknown document %q", tx.Op, wd.ID)
			}
			if store, err = e.drop(store, slot); err != nil {
				return nil, err
			}
		}
		if tx.Op != storage.WALDelete {
			var verify func(*storage.SegmentStage) error
			switch {
			case tx.Digest != nil:
				verify = func(st *storage.SegmentStage) error { return st.VerifyDigest(*tx.Digest) }
			case tx.Images != nil: // a log from before stage digests
				verify = func(st *storage.SegmentStage) error { return st.VerifyStage(tx.Images) }
			}
			if err := add(wd, verify); err != nil {
				return nil, err
			}
		}
	}
	return store, nil
}

// publishLive installs a new snapshot of the forest with its live members as
// the member table.
func (e *engine) publishLive(store *storage.Store) {
	var table []memberView
	idx := make(map[string]int, len(e.byID))
	for _, m := range e.members {
		if !m.dead {
			idx[m.id] = len(table)
			table = append(table, memberView{id: m.id, span: m.span})
		}
	}
	e.snap.Store(&dbSnap{doc: e.forest, store: store, members: table, memberIdx: idx})
}

// liveDocs returns the live members as seeds for a copy of this engine.
func (e *engine) liveDocs() []seedDoc {
	var seeds []seedDoc
	for _, m := range e.members {
		if !m.dead {
			seeds = append(seeds, seedDoc{id: m.id, doc: m.doc})
		}
	}
	return seeds
}

// parts returns the live histogram parts, the unit statistics are merged
// from — incremental maintenance: a mutation touches only the changed
// member's part, and the corpus re-merges (per-tag estimate arithmetic, not
// a histogram rebuild).
func (e *engine) parts() []*histogram.Stats {
	var parts []*histogram.Stats
	for _, m := range e.members {
		if !m.dead {
			parts = append(parts, m.part)
		}
	}
	return parts
}

// rebuildParts recomputes every live part from its document — the ground
// truth the incrementally maintained parts must match. A released member's
// part was built from its document and nothing has changed it since: it is
// already exact.
func (e *engine) rebuildParts() {
	for _, m := range e.members {
		if !m.dead && m.doc != nil {
			m.part = histogram.Build(m.doc, 0)
		}
	}
}

// release drops the member documents of an engine nothing will write
// through — a read-only corpus never stages, logs or compacts a member again
// — so the forest the store was laid down from is the only copy kept.
func (e *engine) release() {
	for _, m := range e.members {
		m.doc = nil
	}
}

// brokenErr wraps the poisoning cause under ErrBroken.
func (e *engine) brokenErr() error {
	return fmt.Errorf("%w: %v", ErrBroken, e.broken)
}

// log makes one transaction durable: its documents serialised as images, and
// the digest of the pages the commit staged for them (nil when it staged
// none). A no-op on a follower. ErrWALBroken means the commit's durability is
// unknowable (poison); any other failure happened cleanly before the commit
// record, leaving the engine unchanged and usable.
func (e *engine) log(op storage.WALOp, docs []seedDoc, digest *storage.StageDigest) error {
	if e.wal == nil {
		return nil
	}
	wds := make([]storage.WALDoc, len(docs))
	ends := make([]int, len(docs))
	images := e.images[:0]
	for i, sd := range docs {
		wds[i].ID = sd.id
		if sd.doc != nil { // a delete logs the ID alone
			var err error
			if images, err = xmltree.AppendImage(images, sd.doc); err != nil {
				return err
			}
		}
		ends[i] = len(images)
	}
	e.images = images
	// Sliced only now: the buffer may have moved while it grew.
	start := 0
	for i, end := range ends {
		if end > start {
			wds[i].Image = images[start:end]
		}
		start = end
	}
	_, err := e.wal.AppendLogical(op, wds, digest)
	if errors.Is(err, storage.ErrWALBroken) {
		e.broken = err
		return e.brokenErr()
	}
	return err
}

// apply runs the commit protocol for one mutation — stage, log, fsync,
// apply, publish: WALInsert adds doc under a new id, WALReplace substitutes
// it for the current version in one transaction (readers see either both
// changes or neither), WALDelete removes the document.
func (e *engine) apply(op storage.WALOp, id string, doc *xmltree.Document) error {
	old, exists := e.byID[id]
	switch {
	case id == "":
		return fmt.Errorf("sjos: document needs a non-empty ID")
	case op == storage.WALInsert && exists:
		return fmt.Errorf("sjos: document %q already exists (use Replace)", id)
	case op != storage.WALInsert && !exists:
		return fmt.Errorf("sjos: no document %q", id)
	}
	durable := false
	commit := func(st *storage.SegmentStage) error {
		var digest *storage.StageDigest
		if st != nil {
			d := st.Digest()
			digest = &d
		}
		err := e.log(op, []seedDoc{{id: id, doc: doc}}, digest)
		durable = err == nil
		return err
	}
	store := e.view().store
	var err error
	if op == storage.WALDelete {
		err = commit(nil)
	} else {
		store, err = e.grow(store, id, doc, nil, commit)
	}
	if err == nil && exists {
		store, err = e.drop(store, old)
	}
	if err != nil {
		if durable {
			// Past the point of no return: the transaction is durable but
			// the in-memory state is behind the log — poison the write path.
			// (For a delete only a programming error can get here: dropping
			// a segment does no I/O.)
			e.broken = err
			return e.brokenErr()
		}
		return err
	}
	e.publishLive(store)
	if e.compactThr < 0 || store.DeadFraction() < e.compactThr {
		return nil
	}
	return e.compact()
}

// compact rewrites the store without its dead segments: the live members are
// re-logged as a fresh WAL base snapshot (bounding recovery replay), then
// rebuilt onto a fresh in-memory file through the same staging path as
// normal appends. Published snapshots in flight stay valid; the new
// snapshot's member spans are renumbered.
func (e *engine) compact() error {
	// A snapshot changes no logical state: failing to append it leaves the
	// previous log (and the live engine) fully intact.
	if err := e.log(storage.WALSnapshot, e.liveDocs(), nil); err != nil {
		return err
	}
	ne := &engine{engineConfig: e.engineConfig}
	store, err := ne.reset(storage.NewMemFile())
	for _, m := range e.members {
		if err != nil {
			break
		}
		if !m.dead {
			store, err = ne.grow(store, m.id, m.doc, m.part, nil)
		}
	}
	if err != nil {
		return fmt.Errorf("sjos: compaction rebuild: %w", err)
	}
	e.forest, e.members, e.byID = ne.forest, ne.members, ne.byID
	e.compactions++
	e.publishLive(store)
	return nil
}

// addIngestStats adds the write path's counters to a corpus-wide sum.
func (e *engine) addIngestStats(st *CorpusIngestStats) {
	st.Compactions += e.compactions
	st.RecoveredTxns += e.recovered
	if e.wal != nil {
		st.WALPages += int(e.wal.Tail())
	}
	if e.broken != nil {
		st.BrokenShards++
	}
}

// shardResult is one shard execution's outcome, before the scatter gathers
// it into a CorpusRunResult.
type shardResult struct {
	// Count is the number of matches produced.
	Count int
	// Stats reports the physical work done.
	Stats ExecStats
	// Trace is the per-operator execution trace (nil unless
	// QueryOptions.Trace was set).
	Trace *OpTrace
	// set is the match set the executor filled (empty under an
	// unlimited count).
	set exec.MatchSet
}

// runOn executes a plan against one pinned snapshot: the whole run reads
// exactly sn's document and store, so concurrent mutations (which publish
// new snapshots) are invisible to it. Callers pin the snapshot themselves so
// they can attribute matches with the matching member table.
func (e *engine) runOn(ctx context.Context, sn *dbSnap, pat *Pattern, p *Plan, opts QueryOptions) (*shardResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// With tracing on, the operator tree is built through a TraceBuilder and
	// counts into a plan-shaped trace; with tracing off the plain compiler
	// runs and execution carries zero instrumentation.
	var tb *exec.TraceBuilder
	var root exec.Operator
	var err error
	if opts.Trace {
		if tb, err = exec.NewTraceBuilder(pat, p); err == nil {
			root, err = tb.Build()
		}
	} else {
		root, err = exec.Build(pat, p)
	}
	if err != nil {
		return nil, err
	}
	ectx := &exec.Context{Ctx: ctx, Doc: sn.doc, Store: sn.store}
	if ctx.Done() != nil {
		ectx.Interrupt = ctx.Err
	}
	res := &shardResult{}
	// A limited count still collects its (at most Limit) rows; only an
	// unlimited count skips materialisation altogether.
	countOnly := opts.CountOnly && opts.Limit <= 0
	switch {
	case countOnly:
		res.Count, err = exec.Count(ectx, root)
	case opts.Limit > 0:
		res.set, err = exec.Collect(ectx, exec.NewLimit(root, opts.Limit), pat.N())
	default:
		res.set, err = exec.Collect(ectx, root, pat.N())
	}
	if err != nil {
		return nil, err
	}
	if !countOnly {
		res.Count = res.set.Len()
	}
	res.Stats = ectx.Stats
	if tb != nil {
		res.Trace = tb.Trace()
	}
	return res, nil
}
