package exec

import (
	"reflect"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// Slot-order []Tuple helpers for the operator tests, which inspect raw
// operator output rather than the pattern-order MatchSet Collect returns.

// Drain runs op to completion and returns its output in schema order; rows
// are copied out of the reused batch.
func Drain(ctx *Context, op Operator) ([]Tuple, error) {
	var out []Tuple
	err := pullBatches(ctx, op, func(b *Batch) {
		for i := 0; i < b.Len(); i++ {
			out = append(out, append(Tuple(nil), b.Row(i)...))
		}
	})
	if err != nil {
		return nil, err
	}
	ctx.Stats.OutputTuples = len(out)
	return out, nil
}

// referenceRun is the in-order yardstick for tests that compare row
// sequences (scratch reuse): one execution of p on a
// scratch of its own that was never in the pool and never goes back. A stale
// alias needs memory that is used twice, so a first run on private memory
// cannot have one. The run is itself held to ReferenceMatches as a multiset
// and to the order p promises on its root's column.
func referenceRun(t testing.TB, ctx *Context, pat *pattern.Pattern, p *plan.Node) []Tuple {
	t.Helper()
	op, err := Build(pat, p)
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector(op.Schema(), pat.N())
	ctx.scratch = new(scratch)
	err = runBatches(ctx, op, c.appendBatch)
	ctx.scratch = nil
	if err != nil {
		t.Fatal(err)
	}
	ctx.Stats.OutputTuples = c.set.Len()
	rows := c.set.Tuples()
	if ref := ReferenceMatches(ctx.Doc, pat); !sortedEq(append([]Tuple(nil), rows...), ref) {
		t.Fatalf("reference run returned %d rows, brute force %d", len(rows), len(ref))
	}
	for i := 1; i < len(rows); i++ {
		if ctx.Doc.Start(rows[i][p.OrderedBy]) < ctx.Doc.Start(rows[i-1][p.OrderedBy]) {
			t.Fatalf("reference run out of order on $%d at row %d", p.OrderedBy, i)
		}
	}
	return rows
}

// Normalize reorders one tuple from the schema's slot layout to
// pattern-node order.
func Normalize(s *Schema, n int, t Tuple) Tuple {
	out := make(Tuple, n)
	for slot, pn := range s.Cols() {
		out[pn] = t[slot]
	}
	return out
}

// NormalizeAll applies Normalize to every tuple.
func NormalizeAll(s *Schema, n int, ts []Tuple) []Tuple {
	out := make([]Tuple, len(ts))
	for i, t := range ts {
		out[i] = Normalize(s, n, t)
	}
	return out
}

// tuples adapts a (MatchSet, error) result to the []Tuple form the tests
// compare: got, err := tuples(Run(...)).
func tuples(m MatchSet, err error) ([]Tuple, error) { return m.Tuples(), err }

// shapePlans returns structurally different valid plans for the 4-node
// pattern //a[.//b/c]//d (a=0 b=1 c=2 d=3): fully-pipelined bushy, left-deep
// with a sort, and bushy over two composites.
func shapePlans() []*plan.Node {
	return []*plan.Node{
		plan.NewJoin(
			plan.NewJoin(plan.NewIndexScan(0),
				plan.NewJoin(plan.NewIndexScan(1), plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoAnc),
				0, 1, pattern.Descendant, plan.AlgoAnc),
			plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoAnc),
		plan.NewJoin(
			plan.NewSort(
				plan.NewJoin(
					plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc),
					plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoDesc),
				0),
			plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoDesc),
		plan.NewJoin(
			plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(3), 0, 3, pattern.Descendant, plan.AlgoAnc),
			plan.NewJoin(plan.NewIndexScan(1), plan.NewIndexScan(2), 1, 2, pattern.Child, plan.AlgoAnc),
			0, 1, pattern.Descendant, plan.AlgoAnc),
	}
}

// exactEq is element-wise equality in sequence order, not just as a
// multiset.
func exactEq(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
