package sjos

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sjos/internal/pattern"
	"sjos/internal/plan"
)

// randomValueXML generates a document whose leaves carry a mix of numeric
// values (several spellings per numeric group), short words and empty
// content, so value predicates hit every eligibility case of the content
// index: exact-match probes, numeric-group merges, range probes over
// all-numeric tags, and ineligible fallbacks.
func randomValueXML(rng *rand.Rand, n int, tags []string) string {
	var sb strings.Builder
	var gen func(budget int) int
	gen = func(budget int) int {
		used := 0
		for used < budget {
			take := 1
			if budget-used > 1 {
				take = 1 + rng.Intn(budget-used)
			}
			tag := tags[rng.Intn(len(tags))]
			sb.WriteString("<" + tag + ">")
			switch rng.Intn(5) {
			case 0:
				fmt.Fprintf(&sb, "%d", rng.Intn(12))
			case 1:
				fmt.Fprintf(&sb, "%d.0", rng.Intn(12)) // alternate numeric spelling
			case 2:
				fmt.Fprintf(&sb, "w%d", rng.Intn(6))
			default: // no value
			}
			gen(take - 1)
			sb.WriteString("</" + tag + ">")
			used += take
		}
		return used
	}
	sb.WriteString("<root>")
	gen(n)
	sb.WriteString("</root>")
	return sb.String()
}

// randomValueTwig is randomTwig with value predicates mixed in: branches
// and chain steps can carry comparison tests drawn from every operator, so
// optimized plans contain both probe-eligible and scan+filter leaves.
func randomValueTwig(rng *rand.Rand, tags []string, n int) *Pattern {
	ops := []string{"=", "!=", "<", "<=", ">", ">=", "~"}
	lits := []string{`"3"`, `"7"`, `"7.0"`, `"11"`, `"w2"`, `"w"`, `"0"`}
	var sb strings.Builder
	sb.WriteString("//" + tags[rng.Intn(len(tags))])
	for i := 1; i < n; i++ {
		tag := tags[rng.Intn(len(tags))]
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, "[%s]", tag)
		case 1:
			fmt.Fprintf(&sb, "[.//%s]", tag)
		case 2:
			fmt.Fprintf(&sb, "/%s", tag)
		case 3:
			fmt.Fprintf(&sb, "//%s", tag)
		default: // value-predicate branch
			fmt.Fprintf(&sb, "[%s %s %s]", tag, ops[rng.Intn(len(ops))], lits[rng.Intn(len(lits))])
		}
	}
	return MustParsePattern(sb.String())
}

// TestValueIndexDifferential is the acceptance differential for predicate
// pushdown: for every optimizer, the chosen plan and its scan arm (the same
// join order with every leaf on scan+filter) must produce exactly the
// brute-force reference's match multiset on random documents and
// value-predicated patterns. Runs under -race in CI (make check).
func TestValueIndexDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	tags := []string{"a", "b", "c", "d"}
	methods := []Method{MethodDP, MethodDPP, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
	totalProbes := 0
	for trial := 0; trial < 6; trial++ {
		doc := randomValueXML(rng, 40+rng.Intn(260), tags)
		db := xmlCorpus(t, doc, nil)
		for q := 0; q < 3; q++ {
			pat := randomValueTwig(rng, tags, 2+rng.Intn(4))
			want := canonicalize(referenceMatches(db, pat))
			for _, m := range methods {
				r, err := db.queryPattern(context.Background(), pat, methodOpts(m))
				if err != nil {
					t.Fatalf("trial %d %v on %s: %v", trial, m, pat, err)
				}
				totalProbes += r.Exec.ValueProbes
				scan, _, err := execAll(db, pat, ScanArm(r.Plan))
				if err != nil {
					t.Fatalf("trial %d %v scan arm on %s: %v", trial, m, pat, err)
				}
				for _, lane := range []struct {
					name string
					ms   []Match
				}{{"vidx", rowsOf(r.Segments)}, {"scan", scan}} {
					if got := canonicalize(lane.ms); !equalStrings(got, want) {
						t.Fatalf("trial %d: %v %s disagrees with the reference on %s: %d vs %d matches",
							trial, m, lane.name, pat, len(got), len(want))
					}
				}
			}
		}
	}
	if totalProbes == 0 {
		t.Fatal("differential never exercised a value-index probe")
	}
}

// TestValueIndexPlanAndStats pins the end-to-end surface of the pushdown
// on a fixed selective query: the plan print, the probe counters, and the
// scanned-tuple reduction against the same plan's scan arm.
func TestValueIndexPlanAndStats(t *testing.T) {
	db := datasetCorpus(t, "dblp", 0.2, 1, nil)
	pat := MustParsePattern(`//article[year < 1980]/title`)
	probe, err := db.queryPattern(context.Background(), pat, methodOpts(MethodDPP))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(probe.PlanText, "ValueIndexScan") {
		t.Fatalf("probe plan lacks ValueIndexScan:\n%s", probe.PlanText)
	}
	if probe.Exec.ValueProbes == 0 {
		t.Fatalf("probe lane reported no value probes: %+v", probe.Exec)
	}
	scanPlan := ScanArm(probe.Plan)
	if text := scanPlan.Format(pat); strings.Contains(text, "ValueIndexScan") {
		t.Fatalf("scan arm still probes:\n%s", text)
	}
	scan, scanStats, err := execAll(db, pat, scanPlan)
	if err != nil {
		t.Fatal(err)
	}
	if scanStats.ValueProbes != 0 {
		t.Fatalf("scan arm reported %d probes", scanStats.ValueProbes)
	}
	if probe.Count != len(scan) {
		t.Fatalf("lanes disagree: %d vs %d matches", probe.Count, len(scan))
	}
	if !equalStrings(canonicalize(rowsOf(probe.Segments)), canonicalize(scan)) {
		t.Fatal("lanes disagree on match sets")
	}
	if probe.Exec.ScannedTuples >= scanStats.ScannedTuples {
		t.Fatalf("pushdown did not reduce scanned tuples: probe %d, scan %d",
			probe.Exec.ScannedTuples, scanStats.ScannedTuples)
	}
	cs := db.Metrics().Content
	if cs.ValueProbes == 0 {
		t.Fatalf("ContentStats = %+v after probe query", cs)
	}
	if cs.PostingsBytes >= cs.RawPostingsBytes {
		t.Fatalf("postings not compressed: %d vs raw %d", cs.PostingsBytes, cs.RawPostingsBytes)
	}
	// The metrics exposition carries the new counters.
	var sb strings.Builder
	db.WriteMetrics(&sb)
	for _, metric := range []string{
		"sjos_value_index_probes_total", "sjos_postings_blocks_decoded_total",
		"sjos_postings_bytes", "sjos_intern_hits_total",
	} {
		if !strings.Contains(sb.String(), metric) {
			t.Fatalf("metrics exposition lacks %s", metric)
		}
	}
}

// allocsBudgetBatchedProbe bounds allocations per batched value-probe
// query (optimize cached, CountOnly). Measured ~1.1k/op, against ~6.7k
// for the same query tuple-at-a-time; the budget leaves >2x headroom for
// harness noise while still catching a slide back toward the unbatched,
// uninterned figure.
const allocsBudgetBatchedProbe = 2500

// TestBatchedProbeAllocs is the allocs/op regression guard for the
// content-index path: a cached, batched, count-only probe query must stay
// well under the pre-interning allocation figure.
func TestBatchedProbeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	db := datasetCorpus(t, "dblp", 0.2, 1, nil)
	pat := MustParsePattern(`//article[year < 1980]/title`)
	res := mustOptimize(t, db, pat, MethodDPP)
	if !strings.Contains(res.Plan.Format(pat), "ValueIndexScan") {
		t.Fatalf("plan lacks ValueIndexScan:\n%s", res.Plan.Format(pat))
	}
	run := func() {
		if _, err := db.Run(context.Background(), pat, res.Plan, QueryOptions{CountOnly: true}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the buffer pool and lazy state outside the measurement
	allocs := testing.AllocsPerRun(20, run)
	if allocs > allocsBudgetBatchedProbe {
		t.Fatalf("batched probe query allocates %.0f/op, budget %d", allocs, allocsBudgetBatchedProbe)
	}
	t.Logf("batched probe query: %.0f allocs/op (budget %d)", allocs, allocsBudgetBatchedProbe)
}

// probeArm returns a copy of p with every leaf of a predicated pattern node
// marked for a value-index probe, eligible or not: the plan a caller may
// hand Run without planning it.
func probeArm(p *Plan, pat *Pattern) *Plan {
	if p == nil {
		return nil
	}
	cp := *p
	if p.Op == plan.OpIndexScan && pat.Nodes[p.PatternNode].Op != pattern.CmpNone {
		cp.ValueIndex = true
	}
	cp.Left, cp.Right = probeArm(p.Left, pat), probeArm(p.Right, pat)
	return &cp
}

// TestValueIndexLeafFallsBackToScan runs caller-built plans that mark an
// ineligible predicate for a probe (inequality, a range with a non-numeric
// bound, containment): the store declines every probe, and the leaf must
// answer by scan+filter, with the reference's rows and no probe opened.
func TestValueIndexLeafFallsBackToScan(t *testing.T) {
	c := datasetCorpus(t, "pers", 1, 1, nil)
	for _, src := range []string{
		`//employee[salary != "50000"]/name`,
		`//employee[salary < "a"]/name`,
		`//manager[name ~ "mgr-1"]/department/name`,
	} {
		pat := MustParsePattern(src)
		p := probeArm(mustOptimize(t, c, pat, MethodDP).Plan, pat)
		if !strings.Contains(p.Format(pat), "ValueIndexScan") {
			t.Fatalf("%s: no leaf marked for a probe:\n%s", src, p.Format(pat))
		}
		rows, st, err := execAll(c, pat, p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if st.ValueProbes != 0 {
			t.Fatalf("%s: %d value probes opened on an ineligible predicate", src, st.ValueProbes)
		}
		want := referenceMatches(c, pat)
		if len(want) == 0 {
			t.Fatalf("%s: empty reference", src)
		}
		if !equalStrings(canonicalize(rows), canonicalize(want)) {
			t.Fatalf("%s: %d rows, reference %d", src, len(rows), len(want))
		}
	}
}

// TestValueIndexLeafFallsBackPerShard plans a range probe on a writable
// corpus, then writes a non-numeric value of the probed tag onto one shard,
// which makes that shard's store decline the range probe. The old plan must
// probe on every other shard, scan+filter on that one, and still return the
// reference's rows, the new document's row included.
func TestValueIndexLeafFallsBackPerShard(t *testing.T) {
	c := servingCorpus(t)
	pat := MustParsePattern(`//employee[salary > 100000]/name`)
	p := mustOptimize(t, c, pat, MethodDP).Plan
	if !strings.Contains(p.Format(pat), "ValueIndexScan") {
		t.Fatalf("plan does not probe:\n%s", p.Format(pat))
	}
	run := func() *CorpusRunResult {
		t.Helper()
		res, err := c.Run(context.Background(), pat, p, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := resultRows(t, res.Segments); !reflect.DeepEqual(got, referenceRows(c, pat)) {
			t.Fatalf("rows differ from the reference on %d documents", len(got))
		}
		return res
	}
	before := run()
	if before.Stats.ValueProbes != c.NumShards() {
		t.Fatalf("%d value probes on %d shards", before.Stats.ValueProbes, c.NumShards())
	}
	if err := c.InsertString("odd", `<db><employee><name>x</name><salary>lots</salary></employee></db>`); err != nil {
		t.Fatal(err)
	}
	after := run()
	if after.Stats.ValueProbes != c.NumShards()-1 {
		t.Fatalf("%d value probes after the write, want %d (one shard scans)", after.Stats.ValueProbes, c.NumShards()-1)
	}
	if got, _ := resultRows(t, after.Segments); got["odd"] == nil {
		t.Fatal("the non-numeric salary's row is missing")
	}
}
