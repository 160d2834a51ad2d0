package exec

import (
	"fmt"
	"strings"
	"time"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// OpTrace is one operator's instrumentation record in a plan-shaped trace
// tree: wall time split by iterator phase, batch and output-tuple counts,
// and the optimizer's cardinality estimate for est-vs-actual drift analysis
// (the paper's core feedback signal). Durations are cumulative — an
// operator's NextBatch time includes that of its children, and a corpus
// trace sums the shards' times, so they can exceed the query's wall-clock
// latency.
type OpTrace struct {
	// Op names the physical operator ("IndexScan", "Sort", "STJ-Desc",
	// "STJ-Anc"); Detail renders its arguments against the pattern.
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	// EstRows is the optimizer's estimated output cardinality; Rows the
	// actual output tuple count.
	EstRows float64 `json:"est_rows"`
	Rows    int64   `json:"rows"`
	// Batches counts NextBatch invocations, each instance's final empty one
	// included (an early-terminating Limit saves its input that one);
	// Skipped counts index postings the operator bypassed via skip-ahead
	// seeks.
	Batches int64 `json:"batches"`
	Skipped int64 `json:"skipped,omitempty"`
	// Clones is the number of operator instances that fed this record: 1
	// for one execution, one per shard in a trace Merge folded together.
	Clones int64 `json:"clones"`
	// OpenTime, NextTime and CloseTime are the wall time spent in each
	// iterator phase, summed over instances.
	OpenTime  time.Duration `json:"open_ns"`
	NextTime  time.Duration `json:"next_ns"`
	CloseTime time.Duration `json:"close_ns"`
	// Children are the operator's inputs in plan order.
	Children []*OpTrace `json:"children,omitempty"`
}

// WallTime is the operator's total instrumented time across all phases.
func (t *OpTrace) WallTime() time.Duration {
	return t.OpenTime + t.NextTime + t.CloseTime
}

// Format renders the trace tree one operator per line, annotated with
// estimated vs actual rows, the est/actual drift ratio, batches and wall
// time — the body of EXPLAIN ANALYZE.
func (t *OpTrace) Format() string {
	var sb strings.Builder
	var walk func(n *OpTrace, depth int)
	walk = func(n *OpTrace, depth int) {
		fmt.Fprintf(&sb, "%s%s %s  [est≈%.0f actual=%d err=%s batches=%d",
			strings.Repeat("  ", depth), n.Op, n.Detail,
			n.EstRows, n.Rows, driftRatio(n.EstRows, n.Rows), n.Batches)
		if n.Skipped > 0 {
			fmt.Fprintf(&sb, " skipped=%d", n.Skipped)
		}
		fmt.Fprintf(&sb, " time=%v]\n", n.WallTime().Round(time.Microsecond))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t, 0)
	return sb.String()
}

// Merge folds another trace of the same plan shape into t, summing every
// counter and duration recursively. The corpus driver uses it to collapse
// per-shard traces of one shared plan into a single corpus-wide trace;
// EstRows stays corpus-level (the merged-statistics estimate), so it is kept
// from t rather than summed. Shapes are matched positionally — children
// beyond t's own are ignored, which cannot happen when both traces were
// built from the same plan.
func (t *OpTrace) Merge(o *OpTrace) {
	if o == nil {
		return
	}
	t.Rows += o.Rows
	t.Batches += o.Batches
	t.Skipped += o.Skipped
	t.Clones += o.Clones
	t.OpenTime += o.OpenTime
	t.NextTime += o.NextTime
	t.CloseTime += o.CloseTime
	for i, c := range t.Children {
		if i < len(o.Children) {
			c.Merge(o.Children[i])
		}
	}
}

// MaxDrift returns the worst per-operator estimation drift in the trace
// tree and the operator it occurred at. Drift is symmetric — max(est/actual,
// actual/est), with both sides floored at one row so empty operators
// compare cleanly — making 1.0 a perfect estimate and either direction of
// mis-estimation (over or under) count equally.
func (t *OpTrace) MaxDrift() (float64, *OpTrace) {
	worst, at := 1.0, t
	var walk func(n *OpTrace)
	walk = func(n *OpTrace) {
		e, a := n.EstRows, float64(n.Rows)
		if e < 1 {
			e = 1
		}
		if a < 1 {
			a = 1
		}
		d := e / a
		if d < 1 {
			d = 1 / d
		}
		if d > worst {
			worst, at = d, n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t)
	return worst, at
}

// driftRatio renders est/actual ("-" when either side is zero).
func driftRatio(est float64, actual int64) string {
	if actual <= 0 || est <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", est/float64(actual))
}

// TraceBuilder compiles one instrumented operator tree for a plan: every
// operator counts straight into its plan node's record of a plan-shaped
// OpTrace tree. A builder serves one execution — Build once, run the tree,
// then read Trace.
type TraceBuilder struct {
	pat  *pattern.Pattern
	plan *plan.Node
	root *OpTrace
	recs map[*plan.Node]*OpTrace
}

// NewTraceBuilder prepares tracing for plan p over pat.
func NewTraceBuilder(pat *pattern.Pattern, p *plan.Node) (*TraceBuilder, error) {
	tb := &TraceBuilder{pat: pat, plan: p, recs: make(map[*plan.Node]*OpTrace)}
	root, err := tb.mirror(p)
	if err != nil {
		return nil, err
	}
	tb.root = root
	return tb, nil
}

// PlanTrace returns the trace of plan p over pat as it reads when no
// instance ran anywhere: the plan's shape and estimates, every actual zero
// and no clones. A corpus reports it when every shard was pruned.
func PlanTrace(pat *pattern.Pattern, p *plan.Node) (*OpTrace, error) {
	tb, err := NewTraceBuilder(pat, p)
	if err != nil {
		return nil, err
	}
	for _, t := range tb.recs {
		t.Clones = 0
	}
	return tb.root, nil
}

// mirror builds the trace tree in the plan's shape.
func (tb *TraceBuilder) mirror(n *plan.Node) (*OpTrace, error) {
	switch n.Op {
	case plan.OpIndexScan, plan.OpSort, plan.OpStructuralJoin:
	default:
		return nil, fmt.Errorf("exec: unknown plan operator %d", n.Op)
	}
	t := &OpTrace{Op: opName(n), Detail: opDetail(tb.pat, n), EstRows: n.EstCard, Clones: 1}
	kids := []*plan.Node{n.Left}
	if n.Op == plan.OpStructuralJoin {
		kids = append(kids, n.Right)
	}
	for _, k := range kids {
		if k == nil {
			continue
		}
		c, err := tb.mirror(k)
		if err != nil {
			return nil, err
		}
		t.Children = append(t.Children, c)
	}
	tb.recs[n] = t
	return t, nil
}

// Build compiles the instrumented operator tree counting into this
// builder's trace.
func (tb *TraceBuilder) Build() (Operator, error) {
	return buildWrapped(tb.pat, tb.plan, func(n *plan.Node, op Operator) Operator {
		return &traced{inner: op, rec: tb.recs[n]}
	})
}

// Trace returns the plan-shaped trace tree; its counters are final once the
// built tree is Closed.
func (tb *TraceBuilder) Trace() *OpTrace { return tb.root }

// opName names a plan node's physical operator.
func opName(n *plan.Node) string {
	switch n.Op {
	case plan.OpIndexScan:
		if n.ValueIndex {
			return "ValueIndexScan"
		}
		return "IndexScan"
	case plan.OpSort:
		return "Sort"
	case plan.OpStructuralJoin:
		return n.Algo.String()
	}
	return fmt.Sprintf("Op(%d)", n.Op)
}

// opDetail renders a plan node's arguments against the pattern, matching
// the plan formatter's tag($node) convention.
func opDetail(pat *pattern.Pattern, n *plan.Node) string {
	tag := func(u int) string {
		if u >= 0 && u < pat.N() {
			return fmt.Sprintf("%s($%d)", pat.Nodes[u].Tag, u)
		}
		return fmt.Sprintf("$%d", u)
	}
	switch n.Op {
	case plan.OpIndexScan:
		return tag(n.PatternNode)
	case plan.OpSort:
		return "by " + tag(n.SortBy)
	case plan.OpStructuralJoin:
		return fmt.Sprintf("%s %s %s", tag(n.AncNode), n.Axis, tag(n.DescNode))
	}
	return ""
}

// traced wraps one operator instance with phase timers and output counters,
// kept in its plan node's trace record.
type traced struct {
	inner Operator
	rec   *OpTrace
}

// Schema implements Operator.
func (t *traced) Schema() *Schema { return t.inner.Schema() }

// Open implements Operator.
func (t *traced) Open(ctx *Context) error {
	start := time.Now()
	err := t.inner.Open(ctx)
	t.rec.OpenTime += time.Since(start)
	return err
}

// NextBatch implements Operator with one timing sample and one counter
// update per batch, which is what keeps tracing near-free. A failed call
// delivered nothing — the batch's contents are undefined — so it counts as a
// batch but adds no rows.
func (t *traced) NextBatch(b *Batch) error {
	start := time.Now()
	err := t.inner.NextBatch(b)
	t.rec.NextTime += time.Since(start)
	t.rec.Batches++
	if err == nil {
		t.rec.Rows += int64(b.Len())
	}
	return err
}

// SeekGE implements Seeker by delegating to the wrapped operator (if it can
// seek), recording the skipped postings in the trace.
func (t *traced) SeekGE(id xmltree.NodeID) (int, bool, error) {
	skipped, ok, err := trySeek(t.inner, id)
	if ok {
		t.rec.Skipped += int64(skipped)
	}
	return skipped, ok, err
}

// Close implements Operator.
func (t *traced) Close() error {
	start := time.Now()
	err := t.inner.Close()
	t.rec.CloseTime += time.Since(start)
	return err
}
