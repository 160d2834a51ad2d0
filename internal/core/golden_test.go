package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"sjos/internal/cost"
	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/xmltree"
)

// updateGolden rewrites testdata/search_golden.json from the current
// kernel. The committed file was recorded on the map/container-heap kernel
// (the parent of the flat one), so a plain run proves the two searches
// agree observable for observable.
var updateGolden = flag.Bool("update", false, "rewrite testdata/search_golden.json")

const goldenPath = "testdata/search_golden.json"

// planColdTwigs are the benchmark's plan_cold templates (benchmark/inputs.go
// planColdTemplates): 12–13 pattern nodes over the pers vocabulary — deep
// chains, wide fan-out, bushy, mixed / and //. $C is a salary bound.
var planColdTwigs = [...]string{
	`//personnel//manager[department/name]//manager//manager[department/name]/manager[name]/employee[salary>$C]/name`,
	`//manager[name]//manager[department/name][employee/name]//manager[employee[salary>$C]/name]/department/name`,
	`//manager[name][department/name]/manager[name][employee[salary>$C][name]]/manager[name]/employee/name`,
	`//manager[employee/name][department/name][manager/name][manager/employee[salary>$C]/name]/name`,
	`//personnel/manager[name]//manager[name][department]//manager[name][employee[salary>$C]]//employee/name`,
	`//manager[department/name]/manager[department/name]/manager[department/name]/manager[employee[salary>$C]]/name`,
	`//manager[employee[name][salary>$C]][department/name]/manager[employee[name]][department[name]]/manager/name`,
	`//manager[name][employee[name][salary>$C]][department[name]]//manager[name][employee[name]]/department`,
}

// planColdTwig parses template i at the given salary bound.
func planColdTwig(tb testing.TB, i, bound int) *pattern.Pattern {
	tb.Helper()
	pat, err := pattern.Parse(strings.ReplaceAll(planColdTwigs[i], "$C", fmt.Sprint(bound)))
	if err != nil {
		tb.Fatal(err)
	}
	return pat
}

// persTagCard and persEdgeSel are the histogram estimates of an 8× pers
// document (datagen.Pers(8, 1)), written down so search tests and benches do
// not move when the estimator does.
var persTagCard = map[string]float64{
	"personnel": 1, "manager": 4507, "department": 2233, "name": 18092, "employee": 11352, "salary": 11352,
}

var persEdgeSel = map[string]float64{
	"personnel//manager":  0.9946749500776569,
	"personnel/manager":   0.07680205960217987,
	"manager//manager":    0.001952981061582631,
	"manager/manager":     0.0003268349478627215,
	"manager/department":  0.00037380565395017066,
	"manager/name":        0.00031926892324411743,
	"manager/employee":    0.00037388735161936296,
	"manager//employee":   0.002421850287541125,
	"department/name":     0.000202354719032643,
	"employee/salary":     0.0001990218525389368,
	"employee/name":       0.00020034399748238195,
	"manager//department": 0.0024,
}

// persEstimator builds a manual estimator for a pattern over the pers
// vocabulary from the tables above; a salary>C predicate keeps the share of
// the uniform 30000–119999 range above C.
func persEstimator(tb testing.TB, pat *pattern.Pattern) *Estimator {
	tb.Helper()
	nodeCard := make([]float64, pat.N())
	edgeSel := make([]float64, pat.N())
	for u, nd := range pat.Nodes {
		card, ok := persTagCard[nd.Tag]
		if !ok {
			tb.Fatalf("persEstimator: no cardinality for tag %q", nd.Tag)
		}
		if nd.Op != pattern.CmpNone {
			c, _ := pattern.ParseNumeric(nd.Value)
			card *= (120000 - c) / 90000
		}
		nodeCard[u] = card
		if u == 0 {
			continue
		}
		key := pat.Nodes[pat.Parent[u]].Tag + pat.Axis[u].String() + nd.Tag
		if edgeSel[u], ok = persEdgeSel[key]; !ok {
			tb.Fatalf("persEstimator: no selectivity for edge %s", key)
		}
	}
	est, err := NewManualEstimator(pat, nodeCard, edgeSel)
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

// persTags numbers the pers vocabulary for persStats.
var persTags = []string{"personnel", "manager", "department", "name", "employee", "salary"}

// persStats serves the tables above as document statistics with the same
// salary>C selectivity as persEstimator. An estimator built on it keeps a
// predicated leaf's unfiltered tag count as its ScanCard, which
// NewManualEstimator cannot: there a scan reads only NodeCard postings, and
// a probe never costs less.
type persStats struct{}

func (persStats) Lookup(name string) (xmltree.TagID, bool) {
	i := slices.Index(persTags, name)
	return xmltree.TagID(i), i >= 0
}

func (persStats) TagCount(t xmltree.TagID) float64 { return persTagCard[persTags[t]] }

func (persStats) PredicateSelectivity(_ xmltree.TagID, _ pattern.CmpOp, value string) float64 {
	c, _ := pattern.ParseNumeric(value)
	return (120000 - c) / 90000
}

func (persStats) Selectivity(ta, tb xmltree.TagID, ax pattern.Axis) float64 {
	return persEdgeSel[persTags[ta]+ax.String()+persTags[tb]]
}

// anyProbe serves a value-index probe for every predicate.
type anyProbe struct{}

func (anyProbe) ProbeEligible(string, pattern.CmpOp, string) bool { return true }

// everyOtherProbe marks predicates whose constant has an even last digit as
// probe-eligible. Every estimator it is given comes from NewManualEstimator,
// whose ScanCard is NodeCard, so the probe never wins: the random cases all
// scan, and only the plancold-probe cases hold value-index leaves.
type everyOtherProbe struct{}

func (everyOtherProbe) ProbeEligible(_ string, _ pattern.CmpOp, value string) bool {
	return value != "" && (value[len(value)-1]-'0')%2 == 0
}

// goldenCase is one (pattern, statistics, model) triple of the corpus.
type goldenCase struct {
	name  string
	pat   *pattern.Pattern
	est   *Estimator
	model cost.Model
}

// goldenCorpus builds the corpus: 200 seeded random patterns of 2–14 nodes
// (mostly up to 11, so the exhaustive methods stay quick; random tree shapes, mixed axes, repeated tags, predicates, half with an
// OrderBy node; skewed, uniform — tie-heavy — and partly-zero statistics;
// both cost models) plus the eight plan_cold twigs, first on manual
// statistics and then on persStats with every predicate probe-eligible.
func goldenCorpus(t *testing.T) []goldenCase {
	t.Helper()
	rng := rand.New(rand.NewSource(20030305))
	tags := []string{"a", "b", "c", "d", "e", "f"}
	var cases []goldenCase
	for i := 0; i < 200; i++ {
		n := 2 + i%10
		if i%25 == 24 { // three patterns of 12 nodes, three of 13, two of 14
			n = 12 + i/25%3
		}
		b := pattern.NewBuilder(tags[rng.Intn(len(tags))])
		for v := 1; v < n; v++ {
			var parent int
			switch i % 3 {
			case 0: // random recursive tree
				parent = rng.Intn(v)
			case 1: // deep: mostly the previous node
				parent = v - 1
				if rng.Intn(4) == 0 {
					parent = rng.Intn(v)
				}
			default: // wide: mostly one of the first few nodes
				parent = rng.Intn(1 + v/4)
			}
			tag := tags[rng.Intn(len(tags))]
			var h pattern.BuilderNode
			if rng.Intn(2) == 0 {
				h = b.Kid(pattern.BuilderNode(parent), tag)
			} else {
				h = b.Desc(pattern.BuilderNode(parent), tag)
			}
			if rng.Intn(4) == 0 {
				b.Where(h, pattern.CmpGt, fmt.Sprint(rng.Intn(100)))
			}
		}
		if rng.Intn(2) == 0 {
			b.OrderBy(pattern.BuilderNode(rng.Intn(n)))
		}
		pat := b.Pattern()

		nodeCard := make([]float64, n)
		edgeSel := make([]float64, n)
		uniformCard := []float64{10, 100, 1000}[rng.Intn(3)]
		uniformSel := []float64{0.1, 0.01}[rng.Intn(2)]
		for u := range nodeCard {
			if i%4 == 3 {
				nodeCard[u], edgeSel[u] = uniformCard, uniformSel
			} else {
				nodeCard[u] = float64(10 + rng.Intn(5000))
				edgeSel[u] = math.Pow(10, -1-3*rng.Float64())
			}
		}
		if i%10 == 9 { // a tag or an edge the statistics have never seen
			nodeCard[rng.Intn(n)] = 0
			edgeSel[rng.Intn(n)] = 0
		}
		est, err := NewManualEstimator(pat, nodeCard, edgeSel)
		if err != nil {
			t.Fatal(err)
		}
		est.EnableValueIndex(everyOtherProbe{})
		model := testModel()
		if i%2 == 1 {
			model = cost.DefaultModel()
		}
		cases = append(cases, goldenCase{fmt.Sprintf("rand-%03d", i), pat, est, model})
	}
	for i := range planColdTwigs {
		pat := planColdTwig(t, i, 105000+1250*i)
		cases = append(cases, goldenCase{fmt.Sprintf("plancold-%d", i), pat, persEstimator(t, pat), cost.DefaultModel()})
	}
	for i := range planColdTwigs {
		pat := planColdTwig(t, i, 105000+1250*i)
		est, err := NewEstimator(pat, persStats{})
		if err != nil {
			t.Fatal(err)
		}
		est.EnableValueIndex(anyProbe{})
		cases = append(cases, goldenCase{fmt.Sprintf("plancold-probe-%d", i), pat, est, cost.DefaultModel()})
	}
	return cases
}

// goldenMethod is what one search returned.
type goldenMethod struct {
	Plan     string `json:"plan"`     // operator tree, see planString
	Est      string `json:"est"`      // FNV-1a of every node's annotations
	Cost     string `json:"cost"`     // math.Float64bits(Result.Cost), hex
	Counters [3]int `json:"counters"` // PlansConsidered, StatusesGenerated, StatusesExpanded
}

// goldenEntry is one corpus case's record.
type goldenEntry struct {
	Name      string                  `json:"name"`
	Pattern   string                  `json:"pattern"`
	OrderBy   int                     `json:"order_by"`
	TraceLen  int                     `json:"trace_len"`
	TraceHash string                  `json:"trace_hash"` // FNV-1a of the DPP TraceEvent stream
	Methods   map[string]goldenMethod `json:"methods"`
}

// planString renders a plan on one line: a leaf is its pattern node ("!"
// when probed through the value index), D/A a Stack-Tree-Desc/Anc join of
// the edge into the numbered node, S a sort by the numbered node.
func planString(sb *strings.Builder, n *plan.Node) {
	switch n.Op {
	case plan.OpIndexScan:
		fmt.Fprint(sb, n.PatternNode)
		if n.ValueIndex {
			sb.WriteByte('!')
		}
	case plan.OpSort:
		fmt.Fprintf(sb, "S%d(", n.SortBy)
		planString(sb, n.Left)
		sb.WriteByte(')')
	default:
		c := byte('D')
		if n.Algo == plan.AlgoAnc {
			c = 'A'
		}
		fmt.Fprintf(sb, "%c%d(", c, n.DescNode)
		planString(sb, n.Left)
		sb.WriteByte(',')
		planString(sb, n.Right)
		sb.WriteByte(')')
	}
}

// hashWords folds 64-bit words into h.
func hashWords(h hash.Hash64, words ...uint64) {
	var buf [8]byte
	for _, x := range words {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
}

// planEstHash hashes every field of every node in preorder, the float
// annotations by their bit patterns.
func planEstHash(root *plan.Node) string {
	h := fnv.New64a()
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			hashWords(h, math.MaxUint64)
			return
		}
		vi := uint64(0)
		if n.ValueIndex {
			vi = 1
		}
		hashWords(h, uint64(n.Op), uint64(int64(n.PatternNode)), vi, uint64(int64(n.AncNode)), uint64(int64(n.DescNode)),
			uint64(n.Axis), uint64(n.Algo), uint64(int64(n.SortBy)), uint64(int64(n.OrderedBy)),
			math.Float64bits(n.EstCard), math.Float64bits(n.EstCost))
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	return fmt.Sprintf("%016x", h.Sum64())
}

func traceHash(events []TraceEvent) string {
	h := fnv.New64a()
	for _, e := range events {
		hashWords(h, uint64(e.Kind), uint64(e.Edges), uint64(e.OrderMask), uint64(int64(e.Level)), math.Float64bits(e.Cost))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRecord runs all seven methods and the traced DPP over one case.
func goldenRecord(t *testing.T, c goldenCase) goldenEntry {
	t.Helper()
	e := goldenEntry{Name: c.name, Pattern: c.pat.String(), OrderBy: c.pat.OrderBy, Methods: map[string]goldenMethod{}}
	for _, m := range parseableMethods {
		res, err := Optimize(context.Background(), c.pat, c.est, c.model, m, nil)
		if err != nil {
			t.Fatalf("%s %v: %v", c.name, m, err)
		}
		var sb strings.Builder
		planString(&sb, res.Plan)
		e.Methods[m.String()] = goldenMethod{
			Plan:     sb.String(),
			Est:      planEstHash(res.Plan),
			Cost:     fmt.Sprintf("%016x", math.Float64bits(res.Cost)),
			Counters: [3]int{res.Counters.PlansConsidered, res.Counters.StatusesGenerated, res.Counters.StatusesExpanded},
		}
	}
	_, events, err := DPPWithTrace(c.pat, c.est, c.model)
	if err != nil {
		t.Fatalf("%s traced DPP: %v", c.name, err)
	}
	e.TraceLen, e.TraceHash = len(events), traceHash(events)
	return e
}

// TestSearchGolden holds every observable of every search — plan, plan
// annotations, Cost bits, Table-2 counters, the DPP trace — to the record
// taken on the parent commit's kernel.
func TestSearchGolden(t *testing.T) {
	var got []goldenEntry
	for _, c := range goldenCorpus(t) {
		got = append(got, goldenRecord(t, c))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d cases, golden file %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Pattern != w.Pattern || g.OrderBy != w.OrderBy {
			t.Fatalf("case %d is %s %s, golden file has %s %s: corpus generator changed", i, g.Name, g.Pattern, w.Name, w.Pattern)
		}
		if g.TraceLen != w.TraceLen || g.TraceHash != w.TraceHash {
			t.Errorf("%s %s: DPP trace %d events %s, want %d events %s", g.Name, g.Pattern, g.TraceLen, g.TraceHash, w.TraceLen, w.TraceHash)
		}
		for _, m := range parseableMethods {
			if gm, wm := g.Methods[m.String()], w.Methods[m.String()]; gm != wm {
				t.Errorf("%s %s %v:\n got %+v\nwant %+v", g.Name, g.Pattern, m, gm, wm)
			}
		}
	}
}

// formatRef is plan.Node.Format as it was written with fmt, kept as the
// reference for the strconv rendering.
func formatRef(n *plan.Node, pat *pattern.Pattern, sb *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	tag := func(u int) string {
		if u >= 0 && u < pat.N() {
			return fmt.Sprintf("%s($%d)", pat.Nodes[u].Tag, u)
		}
		return fmt.Sprintf("$%d", u)
	}
	switch n.Op {
	case plan.OpIndexScan:
		name := "IndexScan"
		if n.ValueIndex {
			name = "ValueIndexScan"
		}
		fmt.Fprintf(sb, "%s%s %s", indent, name, tag(n.PatternNode))
	case plan.OpSort:
		fmt.Fprintf(sb, "%sSort by %s", indent, tag(n.SortBy))
	case plan.OpStructuralJoin:
		fmt.Fprintf(sb, "%s%s %s %s %s", indent, n.Algo, tag(n.AncNode), n.Axis, tag(n.DescNode))
	}
	if n.EstCard > 0 || n.EstCost > 0 {
		fmt.Fprintf(sb, "  [card≈%.0f cost≈%.0f]", n.EstCard, n.EstCost)
	}
	sb.WriteString("\n")
	if n.Left != nil {
		formatRef(n.Left, pat, sb, depth+1)
	}
	if n.Right != nil {
		formatRef(n.Right, pat, sb, depth+1)
	}
}

// TestPlanFormatMatchesFmt holds plan.Node.Format byte for byte to
// formatRef on every plan of every method over the golden corpus, and on
// hand-made plans with no estimates, large, fractional and non-finite ones,
// and pattern nodes the pattern does not have.
func TestPlanFormatMatchesFmt(t *testing.T) {
	check := func(name string, p *plan.Node, pat *pattern.Pattern) {
		t.Helper()
		var want strings.Builder
		formatRef(p, pat, &want, 0)
		if got := p.Format(pat); got != want.String() {
			t.Fatalf("%s: Format\n%s\nwant\n%s", name, got, want.String())
		}
	}
	plans := 0
	for _, c := range goldenCorpus(t) {
		for _, m := range parseableMethods {
			res, err := Optimize(context.Background(), c.pat, c.est, c.model, m, nil)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, m, err)
			}
			check(fmt.Sprintf("%s %v", c.name, m), res.Plan, c.pat)
			plans++
		}
	}
	pat, err := pattern.Parse(`//a[b>3]//c`)
	if err != nil {
		t.Fatal(err)
	}
	scan := plan.NewIndexScan(1)
	scan.ValueIndex = true
	join := plan.NewJoin(plan.NewIndexScan(0), scan, 0, 1, pattern.Child, plan.AlgoDesc)
	hand := plan.NewJoin(plan.NewSort(join, 1), plan.NewIndexScan(7), -1, 12, pattern.Descendant, plan.AlgoAnc)
	for _, ests := range [][2]float64{{0, 0}, {0, 2.5}, {0.49, 0}, {1e21, 123456789.5}, {math.Inf(1), math.NaN()}} {
		for _, n := range []*plan.Node{hand, hand.Left, join, scan} {
			n.EstCard, n.EstCost = ests[0], ests[1]
		}
		check(fmt.Sprint("hand-made ", ests), hand, pat)
	}
	t.Logf("%d optimized plans and 5 hand-made ones render as with fmt", plans)
}
