package exec

import (
	"errors"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
)

func TestTraceBuilderSerial(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	p := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	p.EstCard = 42
	tb, err := NewTraceBuilder(pat, p)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	tr := tb.Trace()
	if tr.Op != "STJ-Desc" {
		t.Fatalf("root op = %q", tr.Op)
	}
	if tr.Rows != int64(n) {
		t.Fatalf("root rows = %d, want %d", tr.Rows, n)
	}
	// The n rows fit one batch: one call delivers them, one finds the end.
	if n == 0 || n > BatchRows || tr.Batches != 2 {
		t.Fatalf("root batches = %d over %d rows, want 2", tr.Batches, n)
	}
	if tr.Clones != 1 {
		t.Fatalf("root clones = %d, want 1", tr.Clones)
	}
	if tr.EstRows != 42 {
		t.Fatalf("root est = %v, want 42", tr.EstRows)
	}
	if len(tr.Children) != 2 {
		t.Fatalf("%d children, want 2", len(tr.Children))
	}
	mgr, _ := doc.LookupTag("manager")
	nm, _ := doc.LookupTag("name")
	if tr.Children[0].Rows != int64(doc.TagCount(mgr)) || tr.Children[1].Rows != int64(doc.TagCount(nm)) {
		t.Fatalf("leaf rows %d/%d, want %d/%d", tr.Children[0].Rows, tr.Children[1].Rows,
			doc.TagCount(mgr), doc.TagCount(nm))
	}
	for _, c := range tr.Children {
		if c.Op != "IndexScan" {
			t.Fatalf("child op = %q", c.Op)
		}
	}
	out := tr.Format()
	for _, want := range []string{"STJ-Desc", "IndexScan", "manager($0)", "name($1)", "est≈42", "actual=", "batches=2", "time="} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestTraceBuilderMatchesPlainExecution(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	me := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoAnc)
	men := plan.NewJoin(me, plan.NewIndexScan(2), 0, 2, pattern.Descendant, plan.AlgoAnc)
	op, err := Build(pat, men)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Count(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTraceBuilder(pat, men)
	if err != nil {
		t.Fatal(err)
	}
	op, err = tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(newCtx(t, doc), op)
	if err != nil {
		t.Fatal(err)
	}
	if n != plain {
		t.Fatalf("traced count %d, plain %d", n, plain)
	}
	if tr := tb.Trace(); tr.Rows != int64(plain) {
		t.Fatalf("trace rows %d, want %d", tr.Rows, plain)
	}
}

func TestTraceBuilderRejectsBadPlans(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	if _, err := NewTraceBuilder(pat, &plan.Node{Op: plan.Op(99)}); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

// TestTracedFailedBatchIsNotRows is the regression test for the tracer's row
// count: a NextBatch that fails has delivered nothing, whatever it left in the
// batch (IndexScan returns the error of block k with blocks 1…k−1 still
// appended), so the trace's Rows is what the consumer was actually handed.
func TestTracedFailedBatchIsNotRows(t *testing.T) {
	in := newScriptedOp([]Tuple{{1}, {2}, {3}, {4}, {5}}, 2, 1)
	in.failRows = 1 // the second call leaves a row behind and fails
	rec := &OpTrace{}
	delivered := 0
	err := pullBatches(newCtx(t, personnelDoc(t)), &traced{inner: in, rec: rec}, func(b *Batch) { delivered += b.Len() })
	if !errors.Is(err, errScripted) {
		t.Fatalf("err = %v, want the scripted failure", err)
	}
	if got := rec.Rows; delivered != 2 || got != 2 {
		t.Fatalf("trace rows = %d with %d rows delivered, want 2 and 2", got, delivered)
	}
	if got := rec.Batches; got != 2 {
		t.Fatalf("trace batches = %d, want 2 (the failed call is still a call)", got)
	}
}
