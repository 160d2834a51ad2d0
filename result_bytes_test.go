package sjos_test

import (
	"context"
	"runtime"
	"testing"

	"sjos"
)

// queryBytes returns the bytes one QueryContext of src allocates, averaged
// over runs, after a first run that plans the query into the cache and makes
// its pages resident, and the last run's result.
func queryBytes(tb testing.TB, c *sjos.Corpus, src string, opts sjos.QueryOptions, runs int) (float64, *sjos.CorpusQueryResult) {
	tb.Helper()
	ctx := context.Background()
	res, err := c.QueryContext(ctx, src, opts)
	if err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if res, err = c.QueryContext(ctx, src, opts); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), res
}

// limit10Bytes is what one limit-10 QueryContext of //employee[name] on the
// serving corpus allocated, at GOMAXPROCS(1), when each shard's result still
// grew by doubling one flat slice.
const limit10Bytes = 8192

// TestResultPathBytes is the byte guard for the result path: a full
// QueryContext allocates about its result's own size — at most 1.25 × rows
// × width × 4 bytes, the bytes of planning, execution, demux and gather
// included — and a limit-10 query no more than 1.1 × limit10Bytes. A
// result that doubled one flat slice as it grew allocated 3.0 × (Q.Pers.1.a)
// and 2.8 × (Q.Pers.4.d); chunks read 1.06 × and 1.03 ×.
func TestResultPathBytes(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("allocation counting is noisy under -short harnesses and pools drop buffers under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := sjos.ServingCorpus(t)
	for _, src := range []string{
		`//manager//employee/name`,                             // Q.Pers.1.a
		`//manager[.//manager//employee/name]/department/name`, // Q.Pers.4.d
	} {
		b, res := queryBytes(t, c, src, sjos.QueryOptions{}, 5)
		ids := float64(res.Count * sjos.MustParsePattern(src).N())
		if ratio := b / (ids * 4); res.Count < 50000 || ratio > 1.25 {
			t.Errorf("%s: QueryContext allocates %.0f B for %d rows (%.2f × their IDs), want ≤ 1.25 ×", src, b, res.Count, ratio)
		} else {
			t.Logf("%s: %.0f B for %d rows, %.3f × their IDs", src, b, res.Count, ratio)
		}
	}
	b, res := queryBytes(t, c, `//employee[name]`, sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Limit: 10}}, 100)
	if res.Count != 10 || b > 1.1*limit10Bytes {
		t.Errorf("limit 10: %d rows, %.0f B a query, want 10 rows in ≤ %.0f B", res.Count, b, 1.1*limit10Bytes)
	}
	t.Logf("limit 10: %.0f B a query (%d B before chunks)", b, limit10Bytes)
}
