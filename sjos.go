package sjos

import (
	"context"
	"io"
	"os"
	"strings"
	"time"

	"sjos/internal/admission"
	"sjos/internal/core"
	"sjos/internal/cost"
	"sjos/internal/datagen"
	"sjos/internal/exec"
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// Re-exported types: the facade exposes the internal packages' core types
// under stable names so downstream code only imports sjos.
type (
	// Pattern is a tree-pattern query (see ParsePattern).
	Pattern = pattern.Pattern
	// Plan is a physical evaluation plan node.
	Plan = plan.Node
	// Method selects an optimization algorithm.
	Method = core.Method
	// OptimizeResult is an optimizer outcome (plan, estimated cost,
	// search counters).
	OptimizeResult = core.Result
	// Match is one pattern match: slot u holds the document node bound
	// to pattern node u.
	Match = exec.Tuple
	// NodeID identifies a document element node.
	NodeID = xmltree.NodeID
	// ExecStats counts the physical work of one execution.
	ExecStats = exec.Stats
	// PoolStats reports the buffer pool's page-cache behaviour.
	PoolStats = storage.PoolStats
	// ContentStats reports the store's content-index, postings-compression
	// and string-interning counters.
	ContentStats = storage.ContentStats
	// PageFile is the paged storage interface a database image lives on;
	// Options.PageFile injects a custom implementation (fault-injection
	// wrappers, alternative backends).
	PageFile = storage.PageFile
	// CorruptPageError is the typed error a query returns when a page
	// fails checksum or header verification on every allowed attempt.
	CorruptPageError = storage.CorruptPageError
	// PanicError is the typed error Run returns for a panic recovered at
	// the query boundary; Stack holds the goroutine stack at panic time.
	PanicError = exec.PanicError
	// AdmissionStats reports the admission controller's counters.
	AdmissionStats = admission.Stats
)

// Admission-control errors, returned by Run (and Query*) without executing
// anything: ErrOverloaded when the bounded wait queue is full,
// ErrShuttingDown once Drain has begun. Both are fast-fail signals a server
// should map to a retryable status (HTTP 503).
var (
	ErrOverloaded   = admission.ErrOverloaded
	ErrShuttingDown = admission.ErrShuttingDown
)

// The optimization algorithms (see the package documentation).
const (
	MethodDP             = core.MethodDP
	MethodDPP            = core.MethodDPP
	MethodDPPNoLookahead = core.MethodDPPNoLookahead
	MethodDPAPEB         = core.MethodDPAPEB
	MethodDPAPLD         = core.MethodDPAPLD
	MethodFP             = core.MethodFP
	MethodGreedy         = core.MethodGreedy
)

// ParsePattern parses the XPath-like twig syntax (see the package docs).
func ParsePattern(src string) (*Pattern, error) { return pattern.Parse(src) }

// MinimizePattern removes redundant branches from a pattern before
// optimization — the schema-free tree-pattern minimisation of Amer-Yahia
// et al. (SIGMOD 2001), which the paper cites as the rewrite step
// complementary to cost-based join ordering. It returns the reduced
// pattern and a mapping from original node indexes to new ones (-1 for
// removed nodes); the match set, projected onto retained nodes, is
// unchanged.
func MinimizePattern(p *Pattern) (*Pattern, []int) { return pattern.Minimize(p) }

// MustParsePattern is ParsePattern that panics on error.
func MustParsePattern(src string) *Pattern { return pattern.MustParse(src) }

// ParseMethod resolves an algorithm name ("DP", "DPP", "DPP'", "DPAP-EB",
// "DPAP-LD", "FP", "Greedy"). Matching is case-insensitive and "G" is
// accepted as a Greedy shorthand; unknown names get an error that lists
// every valid name.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// MethodNames lists every optimizer name ParseMethod accepts, in the
// conventional order (the cost-based family first, then Greedy).
func MethodNames() []string { return core.MethodNames() }

// Options configures database construction.
type Options struct {
	// PoolFrames sizes the buffer pool (8 KB frames). 0 means the
	// default 2048 frames = 16 MB, the paper's SHORE configuration.
	PoolFrames int
	// PageFile, when non-nil, stores the paged database image on this file
	// instead of memory — a disk file from CreatePageFile, a fault wrapper
	// (see internal/faultfs) or another backend.
	PageFile PageFile
	// MaxInFlight > 0 bounds how many queries execute concurrently;
	// arrivals past the limit wait (up to QueueDepth of them), and past
	// that fail fast with ErrOverloaded. 0 means unlimited.
	MaxInFlight int
	// QueueDepth bounds how many queries may wait for an execution slot
	// when MaxInFlight is set (0 = no waiting: the limit fails fast).
	QueueDepth int
}

// Database is a loaded, indexed, read-only XML document ready for querying —
// the paper's single-document setup. It is a one-shard, one-replica,
// log-less Corpus holding the document as its only member, so a query runs
// exactly as a corpus query does (one plan cache, statistics, metrics,
// slow-query log and admission control) and reports its rows in the
// document's own node numbering. For many documents behind one query surface, or for writes, see Corpus.
type Database struct {
	c *Corpus
}

// documentID is the member ID a Database stores its document under.
const documentID = "doc"

// LoadXML parses an XML document from r and builds its store, indexes and
// statistics.
func LoadXML(r io.Reader, opts *Options) (*Database, error) {
	doc, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return fromDocument(doc, opts)
}

// LoadXMLString is LoadXML over a string.
func LoadXMLString(s string, opts *Options) (*Database, error) {
	return LoadXML(strings.NewReader(s), opts)
}

// OpenImage loads a database from a binary document image (xqgen -format
// image writes them); indexes and statistics are rebuilt deterministically
// on load.
func OpenImage(r io.Reader, opts *Options) (*Database, error) {
	doc, err := xmltree.ReadImage(r)
	if err != nil {
		return nil, err
	}
	return fromDocument(doc, opts)
}

// OpenImageFile is OpenImage from a file path.
func OpenImageFile(path string, opts *Options) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenImage(f, opts)
}

// GenerateDataset builds one of the synthetic benchmark data sets
// ("mbench", "dblp", "pers") at the given scale (1 = base size; see
// DESIGN.md) and folding factor (≤ 1 = unfolded, as in the paper's §4.3).
func GenerateDataset(name string, scale float64, fold int, opts *Options) (*Database, error) {
	doc, err := datagen.Generate(datagen.Config{Name: name, Scale: scale})
	if err != nil {
		return nil, err
	}
	doc = xmltree.Fold(doc, fold)
	return fromDocument(doc, opts)
}

// NewMemPageFile returns a fresh in-memory page file — the simplest
// CorpusOptions.ShardWALFile for tests and ephemeral writable corpora.
func NewMemPageFile() PageFile { return storage.NewMemFile() }

// CreatePageFile creates (truncating if present) a disk-backed page file at
// path, suitable for Options.PageFile or CorpusOptions.ShardWALFile.
func CreatePageFile(path string) (PageFile, error) { return storage.CreateDiskFile(path) }

// OpenPageFile opens an existing disk-backed page file at path — the
// recovery counterpart of CreatePageFile.
func OpenPageFile(path string) (PageFile, error) { return storage.OpenDiskFile(path) }

// fromDocument builds a read-only database over doc: a one-shard corpus
// whose only member is doc, stored on opts.PageFile when one is given.
func fromDocument(doc *xmltree.Document, opts *Options) (*Database, error) {
	co := CorpusOptions{Shards: 1}
	if opts != nil {
		co.Options = *opts
	}
	if f := co.PageFile; f != nil {
		co.ShardPageFile = func(int, int) PageFile { return f }
	}
	b := NewCorpusBuilder(&co)
	if err := b.add(documentID, doc, nil); err != nil {
		return nil, err
	}
	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Database{c: c}, nil
}

// member returns the current snapshot of the one shard and the document's
// span inside its forest.
func (db *Database) member() (*dbSnap, xmltree.DocSpan) {
	sn := db.c.shards[0].meta().view()
	return sn, sn.members[0].span
}

// NumNodes returns the number of element nodes in the database.
func (db *Database) NumNodes() int {
	_, span := db.member()
	return span.Nodes
}

// TagName returns the element tag of a matched node.
func (db *Database) TagName(id NodeID) string {
	sn, span := db.member()
	return sn.doc.TagName(sn.doc.Tag(span.First + id))
}

// Value returns the text value of a matched node ("" if none).
func (db *Database) Value(id NodeID) string {
	sn, span := db.member()
	return sn.doc.Value(span.First + id)
}

// Optimize picks a plan for pat with the chosen algorithm. te is the
// DPAP-EB expansion bound (0 = the number of pattern edges, the paper's
// Table 1 setting); it is ignored by other methods. Optimize always runs
// the optimizer (it neither consults nor populates the plan cache), so
// repeated calls measure real search effort; cached optimization is the
// QueryContext path.
func (db *Database) Optimize(pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	return db.c.OptimizeContext(context.Background(), pat, m, te)
}

// OptimizeContext is Optimize under a context: cancelling ctx aborts the
// plan search (all algorithms poll it) and returns ctx's error.
func (db *Database) OptimizeContext(ctx context.Context, pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	return db.c.OptimizeContext(ctx, pat, m, te)
}

// OptimizeWithExactStats is Optimize with the oracle estimator: exact
// per-node candidate counts and per-edge join selectivities computed from
// the document, instead of positional-histogram estimates. It isolates the
// effect of estimation error on plan choice (the A2 ablation in DESIGN.md)
// and is too expensive for routine use.
func (db *Database) OptimizeWithExactStats(pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	// The forest holds the document and nothing else a pattern node can
	// match (its synthetic root's tag never does), so its counts are the
	// document's.
	sn, _ := db.member()
	est, err := core.NewOracleEstimator(pat, sn.doc)
	if err != nil {
		return nil, err
	}
	return core.Optimize(context.Background(), pat, est, cost.DefaultModel(), m, &core.Options{Te: te})
}

// BadPlan returns the estimated-worst of `samples` random valid plans —
// the paper's §4.2.1 baseline for quantifying optimizer value.
func (db *Database) BadPlan(pat *Pattern, samples int, seed int64) (*OptimizeResult, error) {
	stats, _ := db.c.svc.snapshot()
	est, err := core.NewEstimator(pat, stats)
	if err != nil {
		return nil, err
	}
	return core.BadPlan(pat, est, cost.DefaultModel(), samples, seed)
}

// PoolStats returns a snapshot of the buffer pool's cumulative hit/miss
// counters for this database's store.
func (db *Database) PoolStats() PoolStats {
	sn, _ := db.member()
	return sn.store.PoolStats()
}

// ContentStats returns a snapshot of the store's content-index,
// postings-compression and string-interning counters.
func (db *Database) ContentStats() ContentStats {
	sn, _ := db.member()
	return sn.store.ContentStats()
}

// AdmissionStats returns the admission controller's counters (all zero when
// no MaxInFlight was configured).
func (db *Database) AdmissionStats() AdmissionStats { return db.c.AdmissionStats() }

// Drain flips the database into shutdown (see Corpus.Drain).
func (db *Database) Drain(ctx context.Context) error { return db.c.Drain(ctx) }

// RebuildStats recomputes the statistics and invalidates the plan cache (see
// Corpus.RebuildStats).
func (db *Database) RebuildStats() { db.c.RebuildStats() }

// CacheStats returns a snapshot of the plan cache's counters.
func (db *Database) CacheStats() CacheStats { return db.c.CacheStats() }

// Metrics returns a snapshot of the database's observability counters.
func (db *Database) Metrics() Metrics { return db.c.Metrics() }

// WriteMetrics renders the database's counters in the Prometheus text
// exposition format (metric prefix "sjos") — the payload of xqshell's
// .metrics command.
func (db *Database) WriteMetrics(w io.Writer) { db.c.WriteMetrics(w) }

// SetSlowQueryLog configures the database's slow-query log (see
// Corpus.SetSlowQueryLog).
func (db *Database) SetSlowQueryLog(threshold time.Duration, fn func(SlowQueryEntry)) {
	db.c.SetSlowQueryLog(threshold, fn)
}

// SlowQueries returns the most recent slow-query log entries, oldest
// first (at most 32 are retained).
func (db *Database) SlowQueries() []SlowQueryEntry { return db.c.SlowQueries() }

// matches is a one-document result as []Match: the rows of its segment, if
// any, already in the document's own node numbering.
func matches(segs []DocSegment) []Match {
	if len(segs) == 0 {
		return []Match{}
	}
	return segs[0].rows.Tuples()
}

// Run executes a plan for pat under ctx: Corpus.Run over the one document,
// with the same modes, cancellation and resilience envelope (admission,
// metrics, panic recovery).
func (db *Database) Run(ctx context.Context, pat *Pattern, p *Plan, opts RunOptions) (*RunResult, error) {
	cr, err := db.c.run(ctx, pat, p, opts)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Count: cr.Count, Stats: cr.Stats, Trace: cr.Trace}
	if !opts.CountOnly {
		res.Matches = matches(cr.Segments)
	}
	return res, nil
}

// QueryResult is the outcome of a one-shot Query call: the matches plus
// the planned-query report (Plan, PlanText, EstCost, CachedPlan,
// OptimizeTime, ExecuteTime, PlansConsidered, Exec, Trace).
type QueryResult struct {
	// Matches holds all pattern matches in pattern-node order.
	Matches []Match
	planned
}

// Query parses src, optimizes it with method m and executes the chosen
// plan. It is QueryContext with a background context and default options,
// so structurally recurring queries are served from the plan cache.
func (db *Database) Query(src string, m Method) (*QueryResult, error) {
	return db.QueryContext(context.Background(), src, QueryOptions{ExecOptions: ExecOptions{Method: m}})
}

// QueryPattern is Query for an already-built pattern.
func (db *Database) QueryPattern(pat *Pattern, m Method) (*QueryResult, error) {
	return db.QueryPatternContext(context.Background(), pat, QueryOptions{ExecOptions: ExecOptions{Method: m}})
}

// QueryContext parses src, optimizes it through the plan cache and executes
// the chosen plan, observing ctx in both phases: cancellation aborts the
// optimizer search or the execution, whichever is running, and QueryContext
// returns ctx's error. Query, QueryPattern and XQuery are wrappers over this
// entry point; Optimize plus Run is the same query without the cache.
func (db *Database) QueryContext(ctx context.Context, src string, opts QueryOptions) (*QueryResult, error) {
	pat, err := ParsePattern(src)
	if err != nil {
		return nil, err
	}
	return db.QueryPatternContext(ctx, pat, opts)
}

// QueryPatternContext is QueryContext for an already-built pattern. When a
// slow-query log is configured the query runs with per-operator tracing so
// a threshold-crossing entry can attribute its time.
func (db *Database) QueryPatternContext(ctx context.Context, pat *Pattern, opts QueryOptions) (*QueryResult, error) {
	res, err := db.c.queryPattern(ctx, pat, opts)
	if err != nil {
		return nil, err
	}
	qr := &QueryResult{planned: res.planned}
	if !opts.CountOnly {
		qr.Matches = matches(res.Segments)
	}
	return qr, nil
}
