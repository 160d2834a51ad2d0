package sjos_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"sjos"
	"sjos/internal/experiments"
)

// updateExecGolden rewrites testdata/exec_golden.json from the executor
// under test. The committed file was recorded on the executor whose joins
// held Tuple slices and allocated their own batches and arenas (the parent of
// the pooled, handle-addressed one), so a plain run proves the two execute
// every plan identically; pass the flag only from a commit whose executor you
// trust.
var updateExecGolden = flag.Bool("update-exec-golden", false, "rewrite testdata/exec_golden.json")

const execGoldenPath = "testdata/exec_golden.json"

// execGolden is one batched, serial execution: every exec.Stats counter (the
// cost model's terms) and an FNV-64a hash of the rows in output order.
type execGolden struct {
	Query  string
	Method string
	Stats  sjos.ExecStats
	Rows   string
}

// execGoldenMethods are the six optimizers whose plans the golden executes:
// between them they cover Desc and Anc joins, sorts, value probes and
// skip-ahead on every shape.
var execGoldenMethods = []sjos.Method{
	sjos.MethodDP, sjos.MethodDPP, sjos.MethodDPAPEB, sjos.MethodDPAPLD, sjos.MethodFP, sjos.MethodGreedy,
}

// execGoldenQueries are the four Table-1 pers queries and the eight
// plan_cold twigs.
func execGoldenQueries() []experiments.Query {
	var qs []experiments.Query
	for _, q := range experiments.Queries() {
		if q.Dataset == "pers" {
			qs = append(qs, q)
		}
	}
	return append(qs, experiments.PlanColdQueries()...)
}

// TestExecGolden holds the batched executor to the recorded executions: same
// counters, same rows in the same order, for every query under every method.
func TestExecGolden(t *testing.T) {
	db, err := experiments.Dataset("pers", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []execGolden
	for _, q := range execGoldenQueries() {
		pat, err := sjos.ParsePattern(q.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range execGoldenMethods {
			opt, err := db.OptimizeContext(context.Background(), pat, m, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", q.ID, m, err)
			}
			res, err := db.Run(context.Background(), pat, opt.Plan, sjos.QueryOptions{})
			if err != nil {
				t.Fatalf("%s %v: %v", q.ID, m, err)
			}
			h := fnv.New64a()
			var b [4]byte
			for _, row := range res.Matches {
				for _, id := range row.Nodes {
					binary.LittleEndian.PutUint32(b[:], uint32(id))
					h.Write(b[:])
				}
			}
			got = append(got, execGolden{Query: q.ID, Method: m.String(), Stats: res.Stats, Rows: fmt.Sprintf("%016x", h.Sum64())})
		}
	}
	if *updateExecGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(execGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(execGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []execGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d executions, golden has %d", len(got), len(want))
	}
	var diffs []string
	for i := range got {
		if got[i] != want[i] {
			diffs = append(diffs, fmt.Sprintf(" got %+v\nwant %+v", got[i], want[i]))
		}
	}
	if diffs != nil {
		t.Fatalf("%d of %d executions differ from the golden:\n%s", len(diffs), len(got), strings.Join(diffs, "\n"))
	}
}

// TestCorpusReadOnlyPlansLikeWritable: a read-only corpus and a writable one
// over the same documents lay them down the same way and keep the same
// statistics, so every query of the golden plans, estimates and executes
// identically on both — the plans BenchmarkExecPlanColdTwig times are the
// plans xqserve runs.
func TestCorpusReadOnlyPlansLikeWritable(t *testing.T) {
	build := func(walFile func(int) sjos.PageFile) *sjos.Corpus {
		cb := sjos.NewCorpusBuilder(&sjos.CorpusOptions{Shards: 4, ShardWALFile: walFile})
		for i := 0; i < 8; i++ {
			if err := cb.AddDataset(fmt.Sprintf("pers-%03d", i), "pers", 1, 1, int64(1+i)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := cb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	readOnly := build(nil)
	writable := build(func(int) sjos.PageFile { return sjos.NewMemPageFile() })
	if readOnly.IngestEnabled() || !writable.IngestEnabled() {
		t.Fatal("write paths are not what the options asked for")
	}
	ctx := context.Background()
	type outcome struct {
		plan string
		cost float64
		res  *sjos.CorpusRunResult
	}
	plan := func(c *sjos.Corpus, pat *sjos.Pattern, m sjos.Method) outcome {
		opt, err := c.OptimizeContext(context.Background(), pat, m, 0)
		if err != nil {
			t.Fatalf("%s %v: %v", pat, m, err)
		}
		res, err := c.Run(ctx, pat, opt.Plan, sjos.QueryOptions{})
		if err != nil {
			t.Fatalf("%s %v: %v", pat, m, err)
		}
		return outcome{opt.Plan.Format(pat), opt.Cost, res}
	}
	differ := 0
	for _, q := range execGoldenQueries() {
		pat := sjos.MustParsePattern(q.Source)
		for _, m := range execGoldenMethods {
			a, b := plan(readOnly, pat, m), plan(writable, pat, m)
			same := a.plan == b.plan && a.cost == b.cost && a.res.Stats == b.res.Stats && len(a.res.Matches) == len(b.res.Matches)
			for i := 0; same && i < len(a.res.Matches); i++ {
				same = a.res.Matches[i].DocID == b.res.Matches[i].DocID && slices.Equal(a.res.Matches[i].Nodes, b.res.Matches[i].Nodes)
			}
			if !same {
				differ++
				t.Errorf("%s %v: read-only corpus plans\n%s(cost %g, %+v, %d rows)\nwritable corpus plans\n%s(cost %g, %+v, %d rows)",
					q.ID, m, a.plan, a.cost, a.res.Stats, len(a.res.Matches), b.plan, b.cost, b.res.Stats, len(b.res.Matches))
			}
		}
	}
	if differ > 0 {
		t.Logf("%d (query, method) cases differ", differ)
	}
}
