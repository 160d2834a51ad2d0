package core

import (
	"context"

	"math"
	"math/rand"
	"testing"

	"sjos/internal/cost"
	"sjos/internal/histogram"
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// testModel returns a fixed cost model so expectations are stable.
func testModel() cost.Model {
	return cost.Model{FI: 1, FS: 2, FIO: 3, FST: 4, FSC: 0.5}
}

// figure1Pattern is the paper's running example (Figure 1): manager A with
// descendant employee B (child name C) and descendant manager D (child
// department E with child name F). 6 nodes, 5 edges.
func figure1Pattern() *pattern.Pattern {
	return pattern.MustParse("//manager[.//employee/name]//manager/department/name")
}

// uniformEstimator builds a manual estimator with the given per-node
// cardinality and per-edge selectivity.
func uniformEstimator(t *testing.T, pat *pattern.Pattern, card, sel float64) *Estimator {
	t.Helper()
	nodeCard := make([]float64, pat.N())
	edgeSel := make([]float64, pat.N())
	for i := range nodeCard {
		nodeCard[i] = card
		edgeSel[i] = sel
	}
	est, err := NewManualEstimator(pat, nodeCard, edgeSel)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// skewedEstimator gives each node and edge a distinct, deterministic
// cardinality/selectivity so cost differences are sharp.
func skewedEstimator(t *testing.T, pat *pattern.Pattern, seed int64) *Estimator {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nodeCard := make([]float64, pat.N())
	edgeSel := make([]float64, pat.N())
	for i := range nodeCard {
		nodeCard[i] = float64(10 + rng.Intn(5000))
		edgeSel[i] = math.Pow(10, -1-3*rng.Float64())
	}
	est, err := NewManualEstimator(pat, nodeCard, edgeSel)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// recost recomputes a plan's cost bottom-up from the estimator and model,
// independently of the search's bookkeeping.
func recost(est *Estimator, m cost.Model, n *plan.Node) float64 {
	switch n.Op {
	case plan.OpIndexScan:
		return m.IndexAccess(est.NodeCard(n.PatternNode))
	case plan.OpSort:
		return recost(est, m, n.Left) + m.Sort(est.ClusterCard(n.Left.Columns()))
	default:
		l := recost(est, m, n.Left)
		r := recost(est, m, n.Right)
		cardA := est.ClusterCard(n.Left.Columns())
		cardB := est.ClusterCard(n.Right.Columns())
		cardAB := est.ClusterCard(n.Columns())
		if n.Algo == plan.AlgoAnc {
			return l + r + m.StackTreeAnc(cardA, cardB, cardAB)
		}
		return l + r + m.StackTreeDesc(cardA, cardB, cardAB)
	}
}

func allMethods() []Method {
	return []Method{MethodDP, MethodDPP, MethodDPPNoLookahead, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
}

func TestAllMethodsReturnValidPlans(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.MustParse("//a"),
		pattern.MustParse("//a//b"),
		pattern.MustParse("//a/b//c"),
		pattern.MustParse("//a[b][c]"),
		pattern.MustParse("//a[.//b/c]//d"),
		figure1Pattern(),
		pattern.MustParse("//a#[.//b/c]//d[e]"),
		pattern.MustParse("//a[b/c#]//d"),
	}
	for pi, pat := range pats {
		est := skewedEstimator(t, pat, int64(pi+1))
		for _, m := range allMethods() {
			r, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
			if err != nil {
				t.Fatalf("pattern %d, %v: %v", pi, m, err)
			}
			if err := r.Plan.Validate(pat, true); err != nil {
				t.Errorf("pattern %d, %v: invalid plan: %v\n%s", pi, m, err, r.Plan.Format(pat))
			}
			if got := recost(est, testModel(), r.Plan); math.Abs(got-r.Cost) > 1e-6*math.Max(1, r.Cost) {
				t.Errorf("pattern %d, %v: reported cost %v, recost %v", pi, m, r.Cost, got)
			}
		}
	}
}

func TestDPAndDPPFindEqualOptima(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.MustParse("//a//b"),
		pattern.MustParse("//a/b//c"),
		pattern.MustParse("//a[b][c]"),
		pattern.MustParse("//a[.//b/c]//d"),
		figure1Pattern(),
		pattern.MustParse("//a#[.//b/c]//d"),
	}
	for pi, pat := range pats {
		for seed := int64(0); seed < 8; seed++ {
			est := skewedEstimator(t, pat, 100*int64(pi)+seed)
			dp, err := Optimize(context.Background(), pat, est, testModel(), MethodDP, nil)
			if err != nil {
				t.Fatal(err)
			}
			dpp, err := Optimize(context.Background(), pat, est, testModel(), MethodDPP, nil)
			if err != nil {
				t.Fatal(err)
			}
			dppNL, err := Optimize(context.Background(), pat, est, testModel(), MethodDPPNoLookahead, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(dp.Cost-dpp.Cost) > 1e-6*dp.Cost {
				t.Errorf("pattern %d seed %d: DP cost %v != DPP cost %v\nDP:\n%sDPP:\n%s",
					pi, seed, dp.Cost, dpp.Cost, dp.Plan.Format(pat), dpp.Plan.Format(pat))
			}
			if math.Abs(dp.Cost-dppNL.Cost) > 1e-6*dp.Cost {
				t.Errorf("pattern %d seed %d: DP cost %v != DPP' cost %v", pi, seed, dp.Cost, dppNL.Cost)
			}
		}
	}
}

func TestFPPlansAreSortFreeAndAboveOptimal(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.MustParse("//a/b//c"),
		pattern.MustParse("//a[.//b/c]//d"),
		figure1Pattern(),
		pattern.MustParse("//a#[.//b/c]//d"),
	}
	for pi, pat := range pats {
		for seed := int64(0); seed < 10; seed++ {
			est := skewedEstimator(t, pat, 7777+100*int64(pi)+seed)
			fp, err := Optimize(context.Background(), pat, est, testModel(), MethodFP, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !fp.Plan.FullyPipelined() {
				t.Fatalf("pattern %d: FP produced a plan with sorts:\n%s", pi, fp.Plan.Format(pat))
			}
			dp, err := Optimize(context.Background(), pat, est, testModel(), MethodDP, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fp.Cost < dp.Cost-1e-6*dp.Cost {
				t.Errorf("pattern %d seed %d: FP cost %v below optimal %v — FP plan should be in DP's space",
					pi, seed, fp.Cost, dp.Cost)
			}
		}
	}
}

// TestFPOptimalAmongRandomPipelinedPlans cross-checks FP's optimality claim:
// no random fully-pipelined plan may beat FP's cost.
func TestFPOptimalAmongRandomPipelinedPlans(t *testing.T) {
	pat := figure1Pattern()
	est := skewedEstimator(t, pat, 42)
	fp, err := Optimize(context.Background(), pat, est, testModel(), MethodFP, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	found := 0
	for i := 0; i < 3000; i++ {
		r, err := RandomPlan(pat, est, testModel(), rng)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Plan.FullyPipelined() {
			continue
		}
		found++
		if r.Cost < fp.Cost-1e-6*fp.Cost {
			t.Fatalf("random pipelined plan cost %v beats FP %v:\n%s", r.Cost, fp.Cost, r.Plan.Format(pat))
		}
	}
	if found == 0 {
		t.Fatal("no pipelined plans sampled; weak test")
	}
}

func TestDPAPEBLargeBoundMatchesDPP(t *testing.T) {
	pat := figure1Pattern()
	for seed := int64(0); seed < 6; seed++ {
		est := skewedEstimator(t, pat, 500+seed)
		dpp, err := Optimize(context.Background(), pat, est, testModel(), MethodDPP, nil)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := Optimize(context.Background(), pat, est, testModel(), MethodDPAPEB, &Options{Te: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dpp.Cost-eb.Cost) > 1e-6*dpp.Cost {
			t.Errorf("seed %d: DPAP-EB(∞) cost %v != DPP %v", seed, eb.Cost, dpp.Cost)
		}
	}
}

func TestDPAPEBBoundsValidated(t *testing.T) {
	pat := figure1Pattern()
	est := uniformEstimator(t, pat, 100, 0.01)
	if _, err := dpapEB(context.Background(), pat, est, testModel(), 0); err == nil {
		t.Fatal("Te=0 accepted")
	}
	// Even Te=1 must return a valid plan.
	r, err := Optimize(context.Background(), pat, est, testModel(), MethodDPAPEB, &Options{Te: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Plan.Validate(pat, true); err != nil {
		t.Fatal(err)
	}
}

func TestDPAPLDPlansAreLeftDeep(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.MustParse("//a[.//b/c]//d"),
		figure1Pattern(),
	}
	for pi, pat := range pats {
		for seed := int64(0); seed < 6; seed++ {
			est := skewedEstimator(t, pat, 900+100*int64(pi)+seed)
			r, err := Optimize(context.Background(), pat, est, testModel(), MethodDPAPLD, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Plan.LeftDeep() {
				t.Fatalf("pattern %d: DPAP-LD produced a bushy plan:\n%s", pi, r.Plan.Format(pat))
			}
			dp, err := Optimize(context.Background(), pat, est, testModel(), MethodDP, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.Cost < dp.Cost-1e-6*dp.Cost {
				t.Fatalf("pattern %d: LD cost %v below optimum %v", pi, r.Cost, dp.Cost)
			}
		}
	}
}

func TestSearchEffortOrdering(t *testing.T) {
	// Table 2's qualitative result: DP considers the most plans, then
	// DPP', DPP, DPAP variants, and FP the fewest.
	pat := figure1Pattern()
	est := skewedEstimator(t, pat, 31)
	n := func(m Method, te int) int {
		r, err := Optimize(context.Background(), pat, est, testModel(), m, &Options{Te: te})
		if err != nil {
			t.Fatal(err)
		}
		return r.Counters.PlansConsidered
	}
	dp := n(MethodDP, 0)
	dppNL := n(MethodDPPNoLookahead, 0)
	dpp := n(MethodDPP, 0)
	eb := n(MethodDPAPEB, 0) // Te defaults to #edges, as in Table 1
	fp := n(MethodFP, 0)
	if !(dp > dppNL && dppNL > dpp) {
		t.Errorf("expected DP > DPP' > DPP, got %d / %d / %d", dp, dppNL, dpp)
	}
	if !(dpp >= eb) {
		t.Errorf("expected DPP >= DPAP-EB, got %d / %d", dpp, eb)
	}
	if !(eb > fp) {
		t.Errorf("expected DPAP-EB > FP, got %d / %d", eb, fp)
	}
}

func TestOptimizersDeterministic(t *testing.T) {
	pat := figure1Pattern()
	est := skewedEstimator(t, pat, 64)
	for _, m := range allMethods() {
		a, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Plan.Format(pat) != b.Plan.Format(pat) || a.Cost != b.Cost {
			t.Errorf("%v: nondeterministic result", m)
		}
	}
}

func TestSingleNodePattern(t *testing.T) {
	pat := pattern.MustParse("//only")
	est := uniformEstimator(t, pat, 42, 1)
	for _, m := range allMethods() {
		r, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r.Plan.Op != plan.OpIndexScan {
			t.Errorf("%v: single-node plan is %v", m, r.Plan.Op)
		}
		if r.Cost != testModel().IndexAccess(42) {
			t.Errorf("%v: cost %v", m, r.Cost)
		}
	}
}

func TestOrderByRespected(t *testing.T) {
	// The same pattern with different OrderBy nodes must yield plans
	// ordered accordingly.
	base := "//a[.//b/c]//d"
	for ob := 0; ob < 4; ob++ {
		pat := pattern.MustParse(base)
		pat.OrderBy = ob
		est := skewedEstimator(t, pat, int64(200+ob))
		for _, m := range allMethods() {
			r, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
			if err != nil {
				t.Fatalf("OrderBy %d, %v: %v", ob, m, err)
			}
			if r.Plan.OrderedBy != ob {
				t.Errorf("OrderBy %d, %v: plan ordered by %d\n%s", ob, m, r.Plan.OrderedBy, r.Plan.Format(pat))
			}
		}
	}
}

func TestMethodParsingAndNames(t *testing.T) {
	for _, m := range allMethods() {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("ParseMethod accepted garbage")
	}
	if Method(99).String() == "" {
		t.Error("unknown method String empty")
	}
}

func TestBadPlanWorseOrEqualOptimal(t *testing.T) {
	pat := figure1Pattern()
	est := skewedEstimator(t, pat, 17)
	dp, err := Optimize(context.Background(), pat, est, testModel(), MethodDP, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := BadPlan(pat, est, testModel(), 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Plan.Validate(pat, false); err != nil {
		t.Fatalf("bad plan invalid: %v", err)
	}
	if bad.Cost < dp.Cost-1e-9 {
		t.Fatalf("bad plan cost %v below optimum %v", bad.Cost, dp.Cost)
	}
}

// TestOptimizedPlansExecuteCorrectly closes the loop: plans chosen by every
// algorithm, run by the executor, produce the reference matches.
func TestOptimizedPlansExecuteCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	pats := []*pattern.Pattern{
		pattern.MustParse("//a//b"),
		pattern.MustParse("//a[b][c]"),
		pattern.MustParse("//a[.//b/c]//d"),
		pattern.MustParse("//a#[b//c]/d"),
	}
	for trial := 0; trial < 15; trial++ {
		doc := xmltree.RandomDocument(rng, 5+rng.Intn(200), []string{"a", "b", "c", "d"})
		stats := histogram.Build(doc, 0)
		for _, pat := range pats {
			est, err := NewEstimator(pat, stats)
			if err != nil {
				t.Fatal(err)
			}
			checkPlansProduceReference(t, doc, pat, est)
		}
	}
}

func TestEstimatorClusterCard(t *testing.T) {
	pat := pattern.MustParse("//a[b]//c")
	est, err := NewManualEstimator(pat,
		[]float64{10, 20, 30},
		[]float64{0, 0.5, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.ClusterCard(1 << 0); got != 10 {
		t.Errorf("card{a} = %v", got)
	}
	if got := est.ClusterCard(1<<0 | 1<<1); got != 10*20*0.5 {
		t.Errorf("card{a,b} = %v", got)
	}
	if got := est.ClusterCard(0b111); math.Abs(got-10*20*30*0.5*0.1) > 1e-9 {
		t.Errorf("card{a,b,c} = %v", got)
	}
	// Disconnected mask multiplies only node cards (no internal edges).
	if got := est.ClusterCard(1<<1 | 1<<2); got != 20*30 {
		t.Errorf("card{b,c} = %v", got)
	}
}

func TestEstimatorRejectsBadInput(t *testing.T) {
	pat := pattern.MustParse("//a//b")
	if _, err := NewManualEstimator(pat, []float64{1}, []float64{1, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	big := pattern.NewBuilder("r")
	h := big.Root()
	for i := 0; i < MaxPatternNodes+2; i++ {
		h = big.Kid(h, "x")
	}
	bp := big.Pattern()
	cards := make([]float64, bp.N())
	if _, err := NewManualEstimator(bp, cards, cards); err == nil {
		t.Fatal("oversized pattern accepted")
	}
}

func TestOracleEstimatorExactCounts(t *testing.T) {
	doc, err := xmltree.ParseString(`<db>
	  <a><b/><b><c/></b></a>
	  <a><c/></a>
	</db>`)
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.MustParse("//a//b/c")
	est, err := NewOracleEstimator(pat, doc)
	if err != nil {
		t.Fatal(err)
	}
	if est.NodeCard(0) != 2 || est.NodeCard(1) != 2 || est.NodeCard(2) != 2 {
		t.Fatalf("node cards: %v %v %v", est.NodeCard(0), est.NodeCard(1), est.NodeCard(2))
	}
	// a//b pairs: the first a contains both b's, the second a none -> 2
	// of 4 possible -> sel 0.5; b/c: 1 of 4 -> 0.25.
	if got := est.EdgeSelectivity(1); got != 0.5 {
		t.Errorf("sel(a//b) = %v", got)
	}
	if got := est.EdgeSelectivity(2); got != 0.25 {
		t.Errorf("sel(b/c) = %v", got)
	}
	// Plans from the oracle estimator must still be valid and optimal.
	res, err := Optimize(context.Background(), pat, est, testModel(), MethodDPP, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(pat, true); err != nil {
		t.Fatal(err)
	}
}

func TestOracleEstimatorWithPredicates(t *testing.T) {
	doc, err := xmltree.ParseString(`<db><x>keep</x><x>drop</x><x>keep</x></db>`)
	if err != nil {
		t.Fatal(err)
	}
	pat := pattern.MustParse(`//db/x[. = "keep"]`)
	est, err := NewOracleEstimator(pat, doc)
	if err != nil {
		t.Fatal(err)
	}
	if est.NodeCard(1) != 2 {
		t.Fatalf("filtered card = %v, want 2", est.NodeCard(1))
	}
}

// TestPipelineOnlyDPPMatchesFP is the cross-validation behind the A2
// ablation: DPP restricted to sort-free moves searches exactly the
// fully-pipelined plan space, so its optimum must equal the FP algorithm's
// on every pattern and statistics instance.
func TestPipelineOnlyDPPMatchesFP(t *testing.T) {
	pats := []*pattern.Pattern{
		pattern.MustParse("//a//b"),
		pattern.MustParse("//a/b//c"),
		pattern.MustParse("//a[b][c]"),
		pattern.MustParse("//a[.//b/c]//d"),
		figure1Pattern(),
		pattern.MustParse("//a#[.//b/c]//d"),
		pattern.MustParse("//a[b/c#]//d"),
	}
	for pi, pat := range pats {
		for seed := int64(0); seed < 10; seed++ {
			est := skewedEstimator(t, pat, 31337+100*int64(pi)+seed)
			pipe, err := dppSearch(context.Background(), pat, est, testModel(),
				dppConfig{name: "DPP-pipe", lookahead: true, pipelineOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if !pipe.Plan.FullyPipelined() {
				t.Fatalf("pattern %d: pipeline-only search produced sorts:\n%s",
					pi, pipe.Plan.Format(pat))
			}
			fp, err := Optimize(context.Background(), pat, est, testModel(), MethodFP, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pipe.Cost-fp.Cost) > 1e-6*fp.Cost {
				t.Errorf("pattern %d seed %d: pipeline-DPP cost %v, FP cost %v\nDPP-pipe:\n%sFP:\n%s",
					pi, seed, pipe.Cost, fp.Cost, pipe.Plan.Format(pat), fp.Plan.Format(pat))
			}
			dpp, err := Optimize(context.Background(), pat, est, testModel(), MethodDPP, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pipe.Cost < dpp.Cost-1e-6*dpp.Cost {
				t.Errorf("pattern %d seed %d: pipeline space beat the full space: %v < %v",
					pi, seed, pipe.Cost, dpp.Cost)
			}
		}
	}
}
