package sjos_test

import (
	"context"
	"fmt"
	"testing"

	"sjos"
	"sjos/internal/core"
)

// TestPointShardAllocs is the allocation guard of a point probe: a
// department-name probe that one shard of four can answer allocates no more
// than the same probe on one shard holding all eight documents, plus
// pointShardAllocSlack. Before pruning, and with the plan text rendered on
// every hit, it read 111 against 58.
const pointShardAllocSlack = 4

func TestPointShardAllocs(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("allocation counting is noisy under -short harnesses, and the race detector's sync.Pool forgets")
	}
	four := sjos.ServingCorpus(t)
	one := sjos.ServingCorpusOn(t, "doc-", 1, 1)
	src := fmt.Sprintf(`//department[name=%q]`, sjos.ValueOnShards(sjos.TallyValues(t, four, `//department/name`), 1))
	opts := sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: core.ServeMethod}}
	allocs := func(c *sjos.Corpus) float64 {
		return testing.AllocsPerRun(200, func() {
			res, err := c.QueryContext(context.Background(), src, opts)
			if err != nil || res.Count != 1 {
				t.Fatalf("%s: %v, %d rows", src, err, res.Count)
			}
		})
	}
	a4, a1 := allocs(four), allocs(one)
	t.Logf("%s: %.0f allocs on four shards, %.0f on one", src, a4, a1)
	if a4 > a1+pointShardAllocSlack {
		t.Fatalf("%s allocates %.0f on four shards, more than %.0f + %d on one", src, a4, a1, pointShardAllocSlack)
	}
}
