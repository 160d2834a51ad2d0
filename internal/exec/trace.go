package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// OpTrace is one operator's instrumentation record in a plan-shaped trace
// tree: wall time split by iterator phase, batch and output-tuple counts,
// and the optimizer's cardinality estimate for est-vs-actual drift analysis
// (the paper's core feedback signal). Durations are cumulative — an
// operator's NextBatch time includes that of its children, and under
// partition-parallel execution the times of all clones are summed, so they
// can exceed the query's wall-clock latency.
type OpTrace struct {
	// Op names the physical operator ("IndexScan", "Sort", "STJ-Desc",
	// "STJ-Anc"); Detail renders its arguments against the pattern.
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	// EstRows is the optimizer's estimated output cardinality; Rows the
	// actual output tuple count.
	EstRows float64 `json:"est_rows"`
	Rows    int64   `json:"rows"`
	// Batches counts NextBatch invocations, each clone's final empty one
	// included (an early-terminating Limit saves its input that one);
	// Skipped counts index postings the operator bypassed via skip-ahead
	// seeks.
	Batches int64 `json:"batches"`
	Skipped int64 `json:"skipped,omitempty"`
	// Clones is the number of operator instances that fed this record: 1
	// for serial execution, one per partition for parallel runs.
	Clones int64 `json:"clones"`
	// OpenTime, NextTime and CloseTime are the wall time spent in each
	// iterator phase, summed over clones.
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

// traceAcc is the shared accumulator behind one plan node's OpTrace. Every
// operator clone built by the owning TraceBuilder flushes its local
// counters here (atomically, on Close), so serial and partition-parallel
// executions feed the same plan-shaped trace.
type traceAcc struct {
	node        *plan.Node
	left, right *traceAcc

	rows    atomic.Int64
	batches atomic.Int64
	skipped atomic.Int64
	clones  atomic.Int64
	openNs  atomic.Int64
	nextNs  atomic.Int64
	closeNs atomic.Int64
}

// TraceBuilder compiles instrumented operator trees for one plan. Build may
// be called many times (the parallel driver builds one clone per
// partition); all clones accumulate into the same per-plan-node counters,
// and Trace snapshots them as a plan-shaped OpTrace tree.
type TraceBuilder struct {
	pat  *pattern.Pattern
	plan *plan.Node
	root *traceAcc
	accs map[*plan.Node]*traceAcc
}

// NewTraceBuilder prepares tracing for plan p over pat.
func NewTraceBuilder(pat *pattern.Pattern, p *plan.Node) (*TraceBuilder, error) {
	tb := &TraceBuilder{pat: pat, plan: p, accs: make(map[*plan.Node]*traceAcc)}
	root, err := tb.mirror(p)
	if err != nil {
		return nil, err
	}
	tb.root = root
	return tb, nil
}

// mirror builds the accumulator tree in the plan's shape.
func (tb *TraceBuilder) mirror(n *plan.Node) (*traceAcc, error) {
	switch n.Op {
	case plan.OpIndexScan, plan.OpSort, plan.OpStructuralJoin:
	default:
		return nil, fmt.Errorf("exec: unknown plan operator %d", n.Op)
	}
	a := &traceAcc{node: n}
	var err error
	if n.Left != nil {
		if a.left, err = tb.mirror(n.Left); err != nil {
			return nil, err
		}
	}
	if n.Right != nil && n.Op == plan.OpStructuralJoin {
		if a.right, err = tb.mirror(n.Right); err != nil {
			return nil, err
		}
	}
	tb.accs[n] = a
	return a, nil
}

// Build compiles a fresh instrumented operator tree accumulating into this
// builder's trace.
func (tb *TraceBuilder) Build() (Operator, error) {
	return buildWrapped(tb.pat, tb.plan, func(n *plan.Node, op Operator) Operator {
		return &traced{inner: op, acc: tb.accs[n]}
	})
}

// Trace snapshots the accumulated counters as a plan-shaped trace tree.
// Valid any time; per-clone counters land when each clone is Closed.
func (tb *TraceBuilder) Trace() *OpTrace {
	return tb.snapshot(tb.root)
}

func (tb *TraceBuilder) snapshot(a *traceAcc) *OpTrace {
	if a == nil {
		return nil
	}
	t := &OpTrace{
		Op:        opName(a.node),
		Detail:    opDetail(tb.pat, a.node),
		EstRows:   a.node.EstCard,
		Rows:      a.rows.Load(),
		Batches:   a.batches.Load(),
		Skipped:   a.skipped.Load(),
		Clones:    a.clones.Load(),
		OpenTime:  time.Duration(a.openNs.Load()),
		NextTime:  time.Duration(a.nextNs.Load()),
		CloseTime: time.Duration(a.closeNs.Load()),
	}
	for _, c := range []*traceAcc{a.left, a.right} {
		if s := tb.snapshot(c); s != nil {
			t.Children = append(t.Children, s)
		}
	}
	return t
}

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

// traced wraps one operator instance with phase timers and output counters.
// Counters stay clone-local (no synchronisation on the NextBatch path) and
// are flushed into the shared accumulator once, when the operator is Closed.
type traced struct {
	inner Operator
	acc   *traceAcc

	rows    int64
	batches int64
	skipped int64
	openNs  int64
	nextNs  int64
	closeNs int64
	flushed bool
}

// Schema implements Operator.
func (t *traced) Schema() *Schema { return t.inner.Schema() }

// Open implements Operator.
func (t *traced) Open(ctx *Context) error {
	start := time.Now()
	err := t.inner.Open(ctx)
	t.openNs += int64(time.Since(start))
	return err
}

// NextBatch implements Operator with one timing sample and one counter
// update per batch, which is what keeps tracing near-free. A failed call
// delivered nothing — the batch's contents are undefined — so it counts as a
// batch but adds no rows.
func (t *traced) NextBatch(b *Batch) error {
	start := time.Now()
	err := t.inner.NextBatch(b)
	t.nextNs += int64(time.Since(start))
	t.batches++
	if err == nil {
		t.rows += int64(b.Len())
	}
	return err
}

// SeekGE implements Seeker by delegating to the wrapped operator (if it can
// seek), recording the skipped postings in the trace.
func (t *traced) SeekGE(pos xmltree.Pos) (int, bool, error) {
	skipped, ok, err := trySeek(t.inner, pos)
	if ok {
		t.skipped += int64(skipped)
	}
	return skipped, ok, err
}

// Close implements Operator; it flushes this clone's counters into the
// shared trace exactly once.
func (t *traced) Close() error {
	start := time.Now()
	err := t.inner.Close()
	t.closeNs += int64(time.Since(start))
	t.flush()
	return err
}

func (t *traced) flush() {
	if t.flushed || t.acc == nil {
		return
	}
	t.flushed = true
	t.acc.rows.Add(t.rows)
	t.acc.batches.Add(t.batches)
	t.acc.skipped.Add(t.skipped)
	t.acc.clones.Add(1)
	t.acc.openNs.Add(t.openNs)
	t.acc.nextNs.Add(t.nextNs)
	t.acc.closeNs.Add(t.closeNs)
}
