package sjos

import (
	"context"
	"io"
	"os"
	"runtime"
	"strings"

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
	// CostModel carries the cost model's normalisation factors.
	CostModel = cost.Model
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
	// RetryPolicy bounds the buffer pool's read-retry loop (attempts,
	// exponential backoff, jitter); see Options.Retry.
	RetryPolicy = storage.RetryPolicy
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
	// HistogramGrid is the positional histogram resolution (0 = default).
	HistogramGrid int
	// Model overrides the cost model. The zero value selects the built-in
	// defaults; use sjos.CalibrateModel for machine-specific factors.
	Model CostModel
	// DiskPath, when non-empty, stores the paged database image in a
	// file at this path instead of in memory, so all page access through
	// the buffer pool becomes real file I/O.
	DiskPath string
	// PlanCacheCapacity bounds the plan cache (entries, LRU). 0 selects
	// the default capacity; negative values are clamped to 1.
	PlanCacheCapacity int
	// PageFile, when non-nil, stores the paged database image on this
	// file instead of memory or DiskPath — the injection point for fault
	// wrappers (see internal/faultfs) and alternative backends. It takes
	// precedence over DiskPath.
	PageFile PageFile
	// Retry overrides the buffer pool's read-retry policy (transient I/O
	// failures and checksum mismatches are retried under bounded
	// exponential backoff). The zero value keeps the default policy
	// (4 attempts, 200µs base delay); MaxAttempts: 1 disables retries.
	Retry RetryPolicy
	// MaxInFlight > 0 bounds how many queries execute concurrently;
	// arrivals past the limit wait (up to QueueDepth of them), and past
	// that fail fast with ErrOverloaded. 0 means unlimited.
	MaxInFlight int
	// QueueDepth bounds how many queries may wait for an execution slot
	// when MaxInFlight is set (0 = no waiting: the limit fails fast).
	QueueDepth int
	// NoValueIndex skips building the (tag, value) content index at store
	// construction. Value predicates then always execute as scan+filter;
	// per-query opt-out is QueryOptions.NoValueIndex.
	NoValueIndex bool
}

func (o *Options) model() CostModel {
	if o != nil && o.Model.Valid() {
		return o.Model
	}
	return cost.DefaultModel()
}

// CalibrateModel measures cost model factors on the current machine.
func CalibrateModel() CostModel { return cost.Calibrate() }

// Database is a loaded, indexed, read-only XML document ready for querying —
// the paper's single-document setup: a thin facade over one storage engine
// (the stored document) and one query service (statistics, plan cache,
// metrics, slow-query log, admission control). Derived handles
// (WithParallelism) share both pointers, so cached plans, statistics, metrics
// and admission control are one per database — a derived handle differs only
// in its execution settings. The zero parallelism (the default for every
// constructor) executes plans serially. For many documents behind one query
// surface, or for writes, see Corpus (a one-shard corpus is the single
// writable store).
type Database struct {
	eng   *engine
	svc   *service
	model CostModel

	// parallelism > 0 routes Run (and therefore Query) through the
	// partition-parallel driver with that many workers. 0 = serial.
	parallelism int
}

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

// SaveImage writes the database's document as a binary image to w. Load it
// back with OpenImage; indexes and statistics are rebuilt deterministically
// on load.
func (db *Database) SaveImage(w io.Writer) error {
	return xmltree.WriteImage(db.eng.view().doc, w)
}

// SaveImageFile is SaveImage to a file path.
func (db *Database) SaveImageFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.SaveImage(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenImage loads a database from a binary image written by SaveImage.
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

// storeFile resolves the page file a database image lives on: an injected
// PageFile, a fresh disk file at DiskPath, or memory.
func storeFile(opts *Options) (PageFile, error) {
	if opts.PageFile != nil {
		return opts.PageFile, nil
	}
	if opts.DiskPath != "" {
		return storage.CreateDiskFile(opts.DiskPath)
	}
	return storage.NewMemFile(), nil
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

// fromDocument builds a read-only database over doc.
func fromDocument(doc *xmltree.Document, opts *Options) (*Database, error) {
	if opts == nil {
		opts = &Options{}
	}
	file, err := storeFile(opts)
	if err != nil {
		return nil, err
	}
	eng, err := newStaticEngine(doc, file, opts.engineConfig())
	if err != nil {
		return nil, err
	}
	db := &Database{eng: eng, svc: newService(opts), model: opts.model()}
	db.refreshStats()
	return db, nil
}

// NumNodes returns the number of element nodes in the database.
func (db *Database) NumNodes() int { return db.eng.view().doc.NumNodes() }

// TagName returns the element tag of a matched node.
func (db *Database) TagName(id NodeID) string {
	doc := db.eng.view().doc
	return doc.TagName(doc.Tag(id))
}

// Value returns the text value of a matched node ("" if none).
func (db *Database) Value(id NodeID) string { return db.eng.view().doc.Value(id) }

// Model returns the database's cost model.
func (db *Database) Model() CostModel { return db.model }

// Optimize picks a plan for pat with the chosen algorithm. te is the
// DPAP-EB expansion bound (0 = the number of pattern edges, the paper's
// Table 1 setting); it is ignored by other methods. Optimize always runs
// the optimizer (it neither consults nor populates the plan cache), so
// repeated calls measure real search effort; cached optimization is the
// QueryContext path.
func (db *Database) Optimize(pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	return db.OptimizeContext(context.Background(), pat, m, te)
}

// OptimizeContext is Optimize under a context: cancelling ctx aborts the
// plan search (all algorithms poll it) and returns ctx's error.
func (db *Database) OptimizeContext(ctx context.Context, pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	stats, _ := db.svc.snapshot()
	return optimizeWith(ctx, pat, stats, db.model, m, te, db.eng.view().store)
}

// OptimizeWithExactStats is Optimize with the oracle estimator: exact
// per-node candidate counts and per-edge join selectivities computed from
// the document, instead of positional-histogram estimates. It isolates the
// effect of estimation error on plan choice (the A2 ablation in DESIGN.md)
// and is too expensive for routine use.
func (db *Database) OptimizeWithExactStats(pat *Pattern, m Method, te int) (*OptimizeResult, error) {
	est, err := core.NewOracleEstimator(pat, db.eng.view().doc)
	if err != nil {
		return nil, err
	}
	return core.Optimize(context.Background(), pat, est, db.model, m, &core.Options{Te: te})
}

// BadPlan returns the estimated-worst of `samples` random valid plans —
// the paper's §4.2.1 baseline for quantifying optimizer value.
func (db *Database) BadPlan(pat *Pattern, samples int, seed int64) (*OptimizeResult, error) {
	stats, _ := db.svc.snapshot()
	est, err := core.NewEstimator(pat, stats)
	if err != nil {
		return nil, err
	}
	return core.BadPlan(pat, est, db.model, samples, seed)
}

// WithParallelism returns a derived handle whose Run (and therefore Query)
// executes plans through the partition-parallel driver with k workers: the
// document is split into k region ranges balanced by postings weight, an
// independent clone of the plan runs per range on a bounded worker pool,
// and the partition outputs are concatenated in document order — the same
// matches, in the same order, as serial execution. k <= 0 selects
// runtime.GOMAXPROCS(0). The receiver is unchanged (and stays serial).
// Derived handles share the database's state — store, statistics, plan
// cache, metrics, slow-query log and admission control — so a plan cached
// through one handle is served to all, and the in-flight limit is per
// database, not per handle. Handles are safe for concurrent use.
func (db *Database) WithParallelism(k int) *Database {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return &Database{eng: db.eng, svc: db.svc, model: db.model, parallelism: k}
}

// Parallelism reports the worker count queries run with (0 = serial).
func (db *Database) Parallelism() int { return db.parallelism }

// PoolStats returns a snapshot of the buffer pool's cumulative hit/miss
// counters for this database's store (shared by all parallelism views).
func (db *Database) PoolStats() PoolStats { return db.eng.view().store.PoolStats() }

// ContentStats returns a snapshot of the store's content-index,
// postings-compression and string-interning counters (shared by all
// parallelism views).
func (db *Database) ContentStats() ContentStats { return db.eng.view().store.ContentStats() }

// AdmissionStats returns the admission controller's counters (all zero when
// no MaxInFlight was configured). Shared by all parallelism views.
func (db *Database) AdmissionStats() AdmissionStats { return db.svc.admit.Stats() }

// Drain flips the database into shutdown: queries arriving after Drain
// begins fail fast with ErrShuttingDown, and Drain returns once every
// in-flight query has finished — or ctx's error if they have not by then
// (calling Drain again resumes waiting). Without a configured MaxInFlight
// there is no admission barrier and Drain returns immediately; it is the
// graceful-exit step for servers built with one (see cmd/xqserve).
func (db *Database) Drain(ctx context.Context) error { return db.svc.admit.Drain(ctx) }

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
