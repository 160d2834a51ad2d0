package sjos

import (
	"sjos/internal/admission"
	"sjos/internal/core"
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
	// PageFile is the paged storage interface a store or a write-ahead log
	// lives on; CorpusOptions.ShardPageFile and ShardWALFile inject custom
	// implementations (fault-injection wrappers, alternative backends).
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

// Admission-control errors, returned by Run, QueryContext and XQueryContext
// without executing anything: ErrOverloaded when the bounded wait queue is
// full, ErrShuttingDown once Drain has begun. Both are fast-fail signals a
// server should map to a retryable status (HTTP 503).
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

// NewMemPageFile returns a fresh in-memory page file — the simplest
// CorpusOptions.ShardWALFile for tests and ephemeral writable corpora.
func NewMemPageFile() PageFile { return storage.NewMemFile() }

// CreatePageFile creates (truncating if present) a disk-backed page file at
// path, suitable for CorpusOptions.ShardPageFile or ShardWALFile.
func CreatePageFile(path string) (PageFile, error) { return storage.CreateDiskFile(path) }

// OpenPageFile opens an existing disk-backed page file at path — the
// recovery counterpart of CreatePageFile.
func OpenPageFile(path string) (PageFile, error) { return storage.OpenDiskFile(path) }
