// Package experiments defines the paper's experimental workloads (§4) and
// the drivers that regenerate every table and figure of the evaluation:
//
//	Table 1  — optimization and plan-execution time for eight queries
//	           across the five algorithms, plus the random bad-plan baseline
//	Table 2  — optimization time and number of plans considered for
//	           Q.Pers.3.d across DP, DPP′, DPP, DPAP-EB, DPAP-LD, FP
//	Table 3  — plan execution time vs. data folding factor (×1 … ×500)
//	Figure 7 — DPAP-EB Te sweep at folding factor 100 (opt + eval time)
//	Figure 8 — the same sweep at folding factor 1
//
// It is consumed by cmd/xqbench and by the repository-root benchmarks. The
// package deliberately uses only the public sjos facade, so it doubles as
// an integration test of the published API.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"sjos"
)

// Query is one benchmark query, named as in the paper:
// Q.<DataSet>.<Num>.<PatternShape>.
type Query struct {
	ID      string
	Dataset string
	Source  string
}

// Queries returns the eight queries of Table 1. The paper's Figure 6 shows
// the pattern shapes only abstractly; these concrete queries reproduce the
// stated shapes (a = 3-node path, b = 4-node one-branch twig, c = 5-node
// two-branch twig, d = the 6-node Figure 1 pattern) on each data set's
// vocabulary. Q.Pers.3.d is the paper's running example query verbatim
// (Example 2.2).
func Queries() []Query {
	return []Query{
		{ID: "Q.Mbench.1.a", Dataset: "mbench", Source: "//eNest//eNest/eOccasional"},
		{ID: "Q.Mbench.2.b", Dataset: "mbench", Source: "//eNest[eOccasional]//eNest/aSixtyFour"},
		{ID: "Q.DBLP.1.b", Dataset: "dblp", Source: "//inproceedings[author]/cite/label"},
		{ID: "Q.DBLP.2.c", Dataset: "dblp", Source: "//article[author][cite/label]/title"},
		{ID: "Q.Pers.1.a", Dataset: "pers", Source: "//manager//employee/name"},
		{ID: "Q.Pers.2.c", Dataset: "pers", Source: "//manager[department/name]//employee/name"},
		{ID: "Q.Pers.3.d", Dataset: "pers", Source: "//manager[.//employee/name]//manager/department/name"},
		{ID: "Q.Pers.4.d", Dataset: "pers", Source: "//manager[.//manager//employee/name]/department/name"},
	}
}

// QueryByID returns the named query.
func QueryByID(id string) (Query, error) {
	for _, q := range Queries() {
		if q.ID == id {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("experiments: unknown query %q", id)
}

// PersQuery3 is the representative query used by Tables 2-3 and Figures
// 7-8.
const PersQuery3 = "Q.Pers.3.d"

// Methods returns the algorithms in the paper's column order for Table 1,
// extended with the repo's statistics-free Greedy orderer as a sixth
// column — every table and differential suite that iterates Methods()
// covers it automatically.
func Methods() []sjos.Method {
	return []sjos.Method{
		sjos.MethodDP, sjos.MethodDPP, sjos.MethodDPAPEB, sjos.MethodDPAPLD,
		sjos.MethodFP, sjos.MethodGreedy,
	}
}

// MethodsTable2 returns the algorithms in Table 2's column order
// (including the DPP′ ablation).
func MethodsTable2() []sjos.Method {
	return []sjos.Method{
		sjos.MethodDP, sjos.MethodDPPNoLookahead, sjos.MethodDPP,
		sjos.MethodDPAPEB, sjos.MethodDPAPLD, sjos.MethodFP,
	}
}

// datasets caches built one-document corpora per (name, fold): dataset construction
// (including histogram builds) dominates otherwise when many experiments
// run in one process.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*sjos.Corpus{}
)

// Dataset returns the named data set at the given folding factor, built at
// the base scales documented in DESIGN.md, as a one-document (so one-shard)
// corpus — the paper's single database. Results are cached per process.
func Dataset(name string, fold int) (*sjos.Corpus, error) {
	if fold < 1 {
		fold = 1
	}
	key := fmt.Sprintf("%s/x%d", name, fold)
	dsMu.Lock()
	defer dsMu.Unlock()
	if db, ok := dsCache[key]; ok {
		return db, nil
	}
	b := sjos.NewCorpusBuilder(nil)
	b.AddDataset(name, name, 1, fold, 0)
	db, err := b.Build()
	if err != nil {
		return nil, err
	}
	dsCache[key] = db
	return db, nil
}

// timeIt measures f with best-of-n repetition (the standard defence
// against scheduler noise in microbenchmarks): it runs f n times and
// returns the minimum duration.
func timeIt(n int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Repetition counts for the measurement drivers: optimization is
// microseconds (repeat more), execution is milliseconds-to-seconds.
const (
	optRepeat  = 7
	evalRepeat = 3
)

// BadPlanSamples is how many random plans the bad-plan baseline draws; the
// worst is kept (§4.2.1 samples "randomly but not exhaustively").
const BadPlanSamples = 40

// badPlanSeed keeps the bad-plan baseline reproducible.
const badPlanSeed = 20030301 // ICDE 2003
