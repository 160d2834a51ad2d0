package exec

import (
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
)

func TestAnalyzedExecutionCountsActuals(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager//name")
	p := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoDesc)
	p.EstCard = 42 // arbitrary estimate to carry through
	op, analyses, err := BuildAnalyzed(pat, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	n, err := Count(ctx, op, false)
	if err != nil {
		t.Fatal(err)
	}
	Finish(analyses)
	if len(analyses) != 3 {
		t.Fatalf("%d analyses, want 3", len(analyses))
	}
	// Root analysis is first (pre-order).
	if analyses[0].Actual != n {
		t.Fatalf("root actual %d, want %d", analyses[0].Actual, n)
	}
	mgr, _ := doc.LookupTag("manager")
	nm, _ := doc.LookupTag("name")
	if analyses[1].Actual != doc.TagCount(mgr) || analyses[2].Actual != doc.TagCount(nm) {
		t.Fatalf("leaf actuals %d/%d, want %d/%d",
			analyses[1].Actual, analyses[2].Actual, doc.TagCount(mgr), doc.TagCount(nm))
	}
	out := FormatAnalysis(pat, p, analyses)
	for _, want := range []string{"est≈42", "actual=", "err="} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatAnalysis missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzedMatchesPlainExecution(t *testing.T) {
	doc := personnelDoc(t)
	pat := pattern.MustParse("//manager[.//employee]//name")
	me := plan.NewJoin(plan.NewIndexScan(0), plan.NewIndexScan(1), 0, 1, pattern.Descendant, plan.AlgoAnc)
	men := plan.NewJoin(me, plan.NewIndexScan(2), 0, 2, pattern.Descendant, plan.AlgoAnc)
	plain, err := RunCount(newCtx(t, doc), pat, men, false)
	if err != nil {
		t.Fatal(err)
	}
	op, analyses, err := BuildAnalyzed(pat, men)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := Count(newCtx(t, doc), op, false)
	if err != nil {
		t.Fatal(err)
	}
	Finish(analyses)
	if plain != instr {
		t.Fatalf("instrumented count %d, plain %d", instr, plain)
	}
}

func TestBuildAnalyzedRejectsBadPlans(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	if _, _, err := BuildAnalyzed(pat, &plan.Node{Op: plan.Op(99)}); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if _, _, err := BuildAnalyzed(pat, &plan.Node{Op: plan.OpIndexScan, PatternNode: 7}); err == nil {
		t.Fatal("out-of-range scan accepted")
	}
}
