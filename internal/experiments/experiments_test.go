package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"sjos"
)

func TestQueriesParseAndHaveShapes(t *testing.T) {
	shapes := map[byte]int{'a': 3, 'b': 4, 'c': 5, 'd': 6}
	for _, q := range Queries() {
		pat, err := sjos.ParsePattern(q.Source)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		shape := q.ID[len(q.ID)-1]
		if want := shapes[shape]; pat.N() != want {
			t.Errorf("%s: %d nodes, shape %c wants %d", q.ID, pat.N(), shape, want)
		}
	}
	if _, err := QueryByID("nope"); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := QueryByID(PersQuery3); err != nil {
		t.Fatal(err)
	}
}

func TestQueriesHaveMatchesOnTheirDatasets(t *testing.T) {
	for _, q := range Queries() {
		db, err := Dataset(q.Dataset, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.QueryContext(context.Background(), q.Source, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: sjos.MethodFP}})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if res.Count == 0 {
			t.Errorf("%s: zero matches — the benchmark query is vacuous", q.ID)
		}
	}
}

func TestDatasetCaching(t *testing.T) {
	a, err := Dataset("pers", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dataset("pers", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("dataset not cached")
	}
	c, err := Dataset("pers", 2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different folds share a database")
	}
	if _, err := Dataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunQueryAndBadPlan(t *testing.T) {
	q, _ := QueryByID("Q.Pers.1.a")
	db, err := Dataset(q.Dataset, 1)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := RunQuery(db, q, sjos.MethodDPP)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Matches == 0 || cell.EstCost <= 0 {
		t.Fatalf("cell = %+v", cell)
	}
	evalBad, estBad, err := RunBadPlan(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if estBad < cell.EstCost {
		t.Errorf("bad plan estimate %v below optimal %v", estBad, cell.EstCost)
	}
	_ = evalBad
}

func TestTable2Shape(t *testing.T) {
	cols, err := Table2(PersQuery3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 6 {
		t.Fatalf("%d columns, want 6", len(cols))
	}
	byName := map[string]int{}
	for _, c := range cols {
		byName[c.Method] = c.PlansConsidered
		if c.PlansConsidered <= 0 {
			t.Errorf("%s considered %d plans", c.Method, c.PlansConsidered)
		}
	}
	// The paper's Table 2 ordering: DP > DPP' > DPP >= DPAP-EB > FP, and
	// FP is the smallest of all.
	if !(byName["DP"] > byName["DPP'"] && byName["DPP'"] > byName["DPP"]) {
		t.Errorf("effort ordering violated: %v", byName)
	}
	if !(byName["DPP"] >= byName["DPAP-EB"]) {
		t.Errorf("DPAP-EB should not exceed DPP: %v", byName)
	}
	for name, v := range byName {
		if name != "FP" && v < byName["FP"] {
			t.Errorf("FP (%d) should consider the fewest plans, but %s = %d", byName["FP"], name, v)
		}
	}
	out := RenderTable2(cols, PersQuery3)
	if !strings.Contains(out, "# of Plans") || !strings.Contains(out, "DPP'") {
		t.Errorf("render missing parts:\n%s", out)
	}
}

func TestTable3SmallFolds(t *testing.T) {
	rows, err := Table3([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Methods())+1 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if len(r.Eval) != 2 {
			t.Errorf("%s: %d folds measured", r.Method, len(r.Eval))
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "bad plan") || !strings.Contains(out, "x2") {
		t.Errorf("render missing parts:\n%s", out)
	}
}

func TestFigure78SmallFold(t *testing.T) {
	bars, err := Figure78(1)
	if err != nil {
		t.Fatal(err)
	}
	// DP, DPP, EB(1..6), DPAP-LD, FP = 10 bars.
	if len(bars) != 10 {
		t.Fatalf("%d bars", len(bars))
	}
	seen := map[string]bool{}
	for _, b := range bars {
		seen[b.Label] = true
		if b.Total() <= 0 {
			t.Errorf("%s: zero total", b.Label)
		}
	}
	for _, want := range []string{"DP", "DPP", "DPAP-EB(1)", "DPAP-EB(6)", "DPAP-LD", "FP"} {
		if !seen[want] {
			t.Errorf("missing bar %s", want)
		}
	}
	out := RenderFigure(bars, 1)
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "DPAP-EB(3)") {
		t.Errorf("render missing parts:\n%s", out)
	}
	if !strings.Contains(RenderFigure(bars, 100), "Figure 7") {
		t.Error("fold 100 should render as Figure 7")
	}
}

// TestTable1SmokeOnPers runs the Table 1 measurement machinery on the Pers
// queries only (the full table is exercised by cmd/xqbench and the
// benchmarks; mbench/dblp builds are comparatively slow for unit tests).
func TestTable1SmokeOnPers(t *testing.T) {
	db, err := Dataset("pers", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		if q.Dataset != "pers" {
			continue
		}
		row := Table1Row{Query: q, Cells: map[string]Cell{}}
		for _, m := range Methods() {
			cell, err := RunQuery(db, q, m)
			if err != nil {
				t.Fatalf("%s %v: %v", q.ID, m, err)
			}
			row.Cells[m.String()] = cell
		}
		out := RenderTable1([]Table1Row{row})
		if !strings.Contains(out, q.ID) {
			t.Errorf("render missing %s", q.ID)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[string]string{
		"0s":    "0",
		"250ns": "250ns",
		"12µs":  "12.0µs",
		"3ms":   "3.00ms",
		"2.5s":  "2.50s",
	}
	for in, want := range cases {
		d, err := parseDur(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%s) = %q, want %q", in, got, want)
		}
	}
}

// parseDur wraps time.ParseDuration for the fmtDur test.
func parseDur(s string) (time.Duration, error) { return time.ParseDuration(s) }

// TestFoldingScalesAllQueries is the integration form of the §4.3 folding
// property: every benchmark query's match count scales exactly linearly
// with the folding factor, under every optimizer.
func TestFoldingScalesAllQueries(t *testing.T) {
	for _, q := range Queries() {
		if q.Dataset != "pers" {
			continue // mbench/dblp fold builds are slow for unit tests
		}
		base, err := Dataset(q.Dataset, 1)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := Dataset(q.Dataset, 3)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := sjos.ParsePattern(q.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods() {
			rb, err := base.OptimizeContext(context.Background(), pat, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			rbase, err := base.Run(context.Background(), pat, rb.Plan, sjos.QueryOptions{CountOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			nb := rbase.Count
			rf, err := folded.OptimizeContext(context.Background(), pat, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			rfold, err := folded.Run(context.Background(), pat, rf.Plan, sjos.QueryOptions{CountOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			nf := rfold.Count
			if nf != 3*nb {
				t.Errorf("%s %v: folded count %d, want %d", q.ID, m, nf, 3*nb)
			}
		}
	}
}

// TestLoadSmoke runs the load lane at its CI size — both arms up a two-step
// ladder — and holds it to the lane's own pass conditions: queries completed
// on every step, none failed (a slow replica must not fail queries), every
// corpus drained, and page reads reached the slow replica in every step of
// the slow arm and in none of the healthy one. Each step's accounting adds
// up and its latency split is reported.
func TestLoadSmoke(t *testing.T) {
	res, err := Load(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, RenderLoad(res))
	}
	if len(res.Arms) != 2 || res.Nodes == 0 || res.Serving != res.Shards {
		t.Fatalf("%d arms over %d nodes, %d of %d shards serving", len(res.Arms), res.Nodes, res.Serving, res.Shards)
	}
	for _, arm := range res.Arms {
		if len(arm.Steps) != 2 {
			t.Fatalf("%s: %d ladder steps, want 2", arm.Name, len(arm.Steps))
		}
		knee := 0.0
		for _, s := range arm.Steps {
			if s.Offered < s.Completed+s.Errors+s.Shed {
				t.Errorf("%s at %.0f/s: offered %d < completed %d + errors %d + shed %d", arm.Name, s.Rate, s.Offered, s.Completed, s.Errors, s.Shed)
			}
			if s.ServiceP50 <= 0 || s.ServiceP50 > s.ServiceP99 || s.WaitP50 > s.WaitP99 || s.P50 < s.ServiceP50 {
				t.Errorf("%s at %.0f/s: latency split out of order: %+v", arm.Name, s.Rate, s)
			}
			if s.sustained() {
				knee = s.Rate
			}
		}
		if arm.Knee != knee {
			t.Errorf("%s: knee %v, steps say %v", arm.Name, arm.Knee, knee)
		}
	}
	// Verify catches a fault that never fired and one that fired unarmed.
	for i, arm := range res.Arms {
		bad := *res
		bad.Arms = append([]LoadArm(nil), res.Arms...)
		bad.Arms[i].Steps = append([]LoadStep(nil), arm.Steps...)
		step := &bad.Arms[i].Steps[0]
		if step.SlowReads = 0; arm.Replicas == 1 {
			step.SlowReads = 1
		}
		if bad.Verify() == nil {
			t.Errorf("%s: Verify accepted %d slow reads in its first step", arm.Name, step.SlowReads)
		}
	}
	if out := RenderLoad(res); !strings.Contains(out, "slow-replica (2 replica(s)") || !strings.Contains(out, "wait p99") ||
		!strings.Contains(out, "slow reads") || !strings.Contains(out, "1 serving") {
		t.Fatalf("render missing fields:\n%s", out)
	}
}

// TestPlannerBenchRegret: the regret lane at its smallest budgets. Every
// method's regret is a ratio against the best plan found (so at least one
// cell reads exactly 1 and none reads less), the eight plan_cold twigs are
// among the workloads, and the headline carries every method's maximum.
func TestPlannerBenchRegret(t *testing.T) {
	res, err := PlannerBench(PlannerConfig{Quick: true, OptBudget: time.Millisecond, EvalBudget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	planCold := 0
	for _, r := range res.Rows {
		if strings.HasPrefix(r.Workload.ID, "plan-cold-") {
			planCold++
		}
		best := false
		for name, c := range r.Cells {
			if c.Regret < 1 {
				t.Errorf("%s %s: regret %v < 1", r.Workload.ID, name, c.Regret)
			}
			best = best || c.Regret == 1
		}
		if !best {
			t.Errorf("%s: no method has regret 1", r.Workload.ID)
		}
	}
	if planCold != len(planColdTemplates) {
		t.Errorf("%d plan_cold workloads, want %d", planCold, len(planColdTemplates))
	}
	for _, name := range methodNamesInOrder() {
		if res.MaxRegret[name] < 1 {
			t.Errorf("max regret of %s is %v", name, res.MaxRegret[name])
		}
	}
	if !strings.Contains(RenderPlannerBench(res), "headline: max regret DP ") {
		t.Error("headline missing")
	}
}
