// Package exec is the physical query executor: a batch-at-a-time iterator
// interpreter for the plans of internal/plan, over the stores of
// internal/storage.
//
// It implements the operator set the paper's plans are made of:
//
//   - IndexScan — candidate retrieval for one pattern node through the
//     element-tag index (with value predicates applied on the fly),
//   - Stack-Tree-Desc and Stack-Tree-Anc structural joins (Al-Khalifa et
//     al., ICDE 2002), generalised from node lists to tuple streams the way
//     Timber evaluates multi-edge patterns: each input is a stream of
//     partial matches ordered by the document position of its join column,
//   - Sort — the only blocking operator; it materialises its input.
//
// Fully-pipelined plans therefore genuinely stream: the first result batch
// is produced before the inputs are exhausted, and no intermediate result
// is ever materialised.
package exec

import (
	"context"
	"fmt"

	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// Tuple is one partial match: a vector of document nodes. Which pattern
// node each slot binds is described by the operator's Schema. The rows of
// a Batch are views into its backing array, valid until the next NextBatch
// on the operator that filled it; a consumer that retains one copies it.
type Tuple []xmltree.NodeID

// Schema maps pattern nodes to tuple slots.
type Schema struct {
	cols []int // slot -> pattern node
}

// NewSchema builds a schema with the given pattern-node-per-slot layout.
func NewSchema(cols ...int) *Schema { return &Schema{cols: cols} }

// Concat returns the schema of a join output: left slots then right slots.
func (s *Schema) Concat(t *Schema) *Schema {
	return NewSchema(append(append([]int{}, s.cols...), t.cols...)...)
}

// Width returns the number of slots.
func (s *Schema) Width() int { return len(s.cols) }

// Col returns the slot holding the given pattern node.
func (s *Schema) Col(patternNode int) (int, bool) {
	for slot, pn := range s.cols {
		if pn == patternNode {
			return slot, true
		}
	}
	return 0, false
}

// Cols returns the slot layout (pattern node per slot). Callers must not
// modify the returned slice.
func (s *Schema) Cols() []int { return s.cols }

// Stats counts the physical work done during one execution; each counter
// corresponds to a term of the paper's cost model.
type Stats struct {
	ScannedTuples int // index-scan outputs (f_I term)
	StackOps      int // pushes + pops in Stack-Tree joins, dead ancestors passed over uncounted (f_st term)
	BufferedPairs int // pairs an Anc join formed, output directly or buffered in self/inherit lists (f_IO term)
	SortedTuples  int // tuples materialised by Sort operators (f_s term)
	OutputTuples  int // tuples produced by the plan root
	Batches       int // non-empty batches the plan root delivered
	SkippedTuples int // index postings bypassed by skip-ahead seeks
	ValueProbes   int // value-index probes opened (predicate pushdown leaves)
}

// Add accumulates o's counters into s. The corpus gather uses it to sum the
// shards' statistics into one query's totals.
func (s *Stats) Add(o Stats) {
	s.ScannedTuples += o.ScannedTuples
	s.StackOps += o.StackOps
	s.BufferedPairs += o.BufferedPairs
	s.SortedTuples += o.SortedTuples
	s.OutputTuples += o.OutputTuples
	s.Batches += o.Batches
	s.SkippedTuples += o.SkippedTuples
	s.ValueProbes += o.ValueProbes
}

// Context carries the execution environment shared by all operators of one
// plan.
type Context struct {
	Doc   *xmltree.Document
	Store *storage.Store
	Stats Stats

	// Ctx, when non-nil, is threaded into the store's page reads so a
	// cancelled query aborts I/O waits (including buffer-pool retry
	// backoffs) instead of only being noticed at the next Interrupt poll.
	Ctx context.Context

	// Interrupt, when non-nil, is polled periodically by long-running
	// operators; a non-nil result aborts the execution with that error.
	// A run under a cancellable context points it at the context's Err so
	// cancelled queries stop scanning promptly.
	Interrupt func() error

	// scratch is the execution's working memory (see scratch), attached by
	// pullBatches for the span of one execution.
	scratch *scratch

	// demand is the number of rows the execution is asked for, set by a
	// Limit at the root when it opens (0: all of them); batch readers size
	// their first refills by it.
	demand int
}

// Operator is the iterator contract. Usage: Open, repeated NextBatch until
// it leaves the batch empty, Close. Operators are single-use.
type Operator interface {
	// Schema describes the operator's output layout; valid before Open.
	Schema() *Schema
	// Open prepares the operator (and its subtree) for iteration.
	Open(ctx *Context) error
	// NextBatch resets b and fills it with the next rows of the stream, at
	// most b's row cap of them; an empty batch marks the end of the stream.
	// The caller owns b; on error its contents are undefined.
	NextBatch(b *Batch) error
	// Close releases resources; must be called exactly once after Open.
	Close() error
}

// errColumn builds the error for a pattern node missing from a schema; this
// indicates a malformed plan, which Build should have rejected.
func errColumn(patternNode int) error {
	return fmt.Errorf("exec: pattern node %d not present in input schema", patternNode)
}
