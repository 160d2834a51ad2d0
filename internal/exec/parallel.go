package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"sjos/internal/pattern"
	"sjos/internal/plan"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// ParallelExec drives one physical plan over K disjoint region partitions
// of the document, executing an independent clone of the plan per partition
// on a bounded worker pool. K = 1 is serial execution: the same driver, one
// clone, no pool.
//
// The region encoding makes the partitioning exact: every match of a tree
// pattern lies entirely inside the region of the node bound to the pattern
// root, and storage.PartitionDoc only cuts between top-level candidate
// regions of the root's tag, so each match is produced by exactly one
// partition and every column of every match stays inside its partition's
// position range. Partition outputs are therefore disjoint, internally
// ordered by the plan's output column, and segment the global order — the
// merge is a plain ordered append, preserving the executor's
// output-ordering invariant with no comparison work.
//
// Per-worker Stats are accumulated into the driving Context's Stats under a
// lock as partitions complete. Because the partition ranges tile the
// postings space, the semantic counters (OutputTuples, BufferedPairs,
// SortedTuples) exactly match a serial execution of the same plan; the
// work counters (ScannedTuples, StackOps) can differ by a few units per
// partition boundary, since a streaming join stops consuming its left
// input once the right side exhausts and the serial and partitioned runs
// reach that point at different places.
type ParallelExec struct {
	// Workers bounds the number of concurrently executing plan clones.
	// 0 is serial execution: one clone over the whole document, on the
	// calling goroutine and the caller's Context. < 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Partitions is the number of region ranges the document is split
	// into; <= 0 means Workers. More partitions than workers improve load
	// balance at a small per-partition setup cost.
	Partitions int
	// BuildOp, when non-nil, compiles each partition's fresh operator tree
	// in place of Build(pat, p). The tracing layer points it at a
	// TraceBuilder so every clone accumulates into one shared
	// plan-shaped trace.
	BuildOp func() (Operator, error)
}

// build compiles one operator tree for a partition, honouring BuildOp.
func (pe *ParallelExec) build(pat *pattern.Pattern, p *plan.Node) (Operator, error) {
	if pe.BuildOp != nil {
		return pe.BuildOp()
	}
	return Build(pat, p)
}

func (pe *ParallelExec) workers() int {
	if pe.Workers > 0 {
		return pe.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ranges computes the partition ranges for pat over c's document: split on
// the pattern root's tag, weighted by the postings counts of every tag the
// plan scans (with multiplicity — a tag scanned twice weighs twice).
func (pe *ParallelExec) ranges(c *Context, pat *pattern.Pattern) []storage.Range {
	if pe.Workers == 0 {
		return []storage.Range{storage.FullRange(c.Doc)}
	}
	k := pe.Partitions
	if k <= 0 {
		k = pe.workers()
	}
	rootTag, ok := c.Doc.LookupTag(pat.Nodes[0].Tag)
	if !ok {
		return []storage.Range{storage.FullRange(c.Doc)}
	}
	weight := make([]xmltree.TagID, 0, pat.N())
	for _, nd := range pat.Nodes {
		if t, ok := c.Doc.LookupTag(nd.Tag); ok {
			weight = append(weight, t)
		}
	}
	return storage.PartitionDoc(c.Doc, rootTag, weight, k)
}

// Run executes p over disjoint partitions and returns the concatenated
// result: the same rows, in the same (document) order, as exec.Run. ctx
// cancels in-flight partitions; base collects the merged statistics.
func (pe *ParallelExec) Run(ctx context.Context, base *Context, pat *pattern.Pattern, p *plan.Node) (MatchSet, error) {
	return pe.run(ctx, base, pat, p, -1)
}

// RunLimit is Run stopped after the first n result tuples (in output
// order). Each partition produces at most n tuples, and as soon as an
// order-prefix of completed partitions holds n tuples the remaining
// workers are cancelled — the parallel counterpart of Limit's early Close.
func (pe *ParallelExec) RunLimit(ctx context.Context, base *Context, pat *pattern.Pattern, p *plan.Node, n int) (MatchSet, error) {
	if n < 0 {
		n = 0
	}
	return pe.run(ctx, base, pat, p, n)
}

// RunCount executes p over disjoint partitions, returning only the total
// match count.
func (pe *ParallelExec) RunCount(ctx context.Context, base *Context, pat *pattern.Pattern, p *plan.Node) (int, error) {
	parts := pe.ranges(base, pat)
	counts := make([]int, len(parts))
	err := pe.forEachPartition(ctx, base, pat, p, parts, func(i int, local *Context, root Operator) error {
		n, err := Count(local, root)
		counts[i] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	base.Stats.OutputTuples = total
	return total, nil
}

// errLimitSatisfied signals (worker -> pool) that a complete order-prefix
// of partitions already holds the first k tuples; it is translated into a
// cooperative cancel, not a failure.
var errLimitSatisfied = errors.New("exec: parallel limit satisfied")

// run is the shared row-collecting driver: limit < 0 collects everything,
// limit >= 0 stops after the first limit rows of the concatenated output.
func (pe *ParallelExec) run(ctx context.Context, base *Context, pat *pattern.Pattern, p *plan.Node, limit int) (MatchSet, error) {
	parts := pe.ranges(base, pat)
	outs := make([]MatchSet, len(parts))
	done := make([]bool, len(parts))
	var mu sync.Mutex // guards outs, done and the prefix check
	err := pe.forEachPartition(ctx, base, pat, p, parts, func(i int, local *Context, root Operator) error {
		if limit >= 0 {
			// Each partition needs at most `limit` rows: the final
			// answer is an order-prefix of the concatenation.
			root = NewLimit(root, limit)
		}
		out, err := Collect(local, root, pat.N())
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		outs[i], done[i] = out, true
		if limit >= 0 {
			got := 0
			for j := 0; j < len(parts) && done[j]; j++ {
				got += outs[j].Len()
			}
			if got >= limit {
				return errLimitSatisfied
			}
		}
		return nil
	})
	if err != nil {
		return MatchSet{}, err
	}
	if len(parts) == 1 {
		return outs[0], nil // nothing to merge, and Limit already cut it
	}

	// Ordered append: partitions tile the position space in order, and
	// every column of a match stays inside its partition's range, so
	// concatenation — one bulk copy per partition — preserves the plan's
	// output order globally. Under a limit, only the complete prefix of
	// partitions is consulted — later partitions may have been cancelled.
	total := 0
	for i := 0; i < len(parts) && done[i]; i++ {
		total += outs[i].Len()
	}
	if limit >= 0 && total > limit {
		total = limit
	}
	w := pat.N()
	result := MatchSet{Width: w, Nodes: make([]xmltree.NodeID, 0, total*w)}
	for i := 0; i < len(parts) && done[i]; i++ {
		room := total*w - len(result.Nodes)
		result.Nodes = append(result.Nodes, outs[i].Nodes[:min(room, len(outs[i].Nodes))]...)
	}
	// Limit trimming may discard rows a partition already counted.
	base.Stats.OutputTuples = total
	return result, nil
}

// forEachPartition runs body for every partition on a bounded worker pool.
// Each invocation gets a fresh clone of the plan's operator tree and a
// partition-local Context whose Stats are merged into base as partitions
// finish. The first real error cancels the remaining work and is returned;
// errLimitSatisfied cancels the pool but reports success.
//
// A single partition (serial execution, an unknown root tag, or a document
// whose root tag admits no cut) needs neither pool nor merge: body runs on
// the calling goroutine with base itself, which polls ctx for cancellation
// unless the caller installed an Interrupt of its own.
func (pe *ParallelExec) forEachPartition(
	ctx context.Context,
	base *Context,
	pat *pattern.Pattern,
	p *plan.Node,
	parts []storage.Range,
	body func(i int, local *Context, root Operator) error,
) error {
	if len(parts) == 1 {
		if base.Interrupt == nil && ctx.Done() != nil {
			base.Interrupt = ctx.Err
		}
		err := pe.runPartition(pat, p, 0, base, body)
		if errors.Is(err, errLimitSatisfied) {
			err = nil
		}
		return err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	nWorkers := pe.workers()
	if nWorkers > len(parts) {
		nWorkers = len(parts)
	}
	var (
		next     int32 = -1
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt32(&next, 1))
				if i >= len(parts) || cctx.Err() != nil {
					return
				}
				rg := parts[i]
				local := &Context{
					Doc:       base.Doc,
					Store:     base.Store,
					Range:     &rg,
					Ctx:       cctx,
					Interrupt: cctx.Err,
				}
				err := pe.runPartition(pat, p, i, local, body)
				mu.Lock()
				base.Stats.Add(local.Stats)
				switch {
				case err == nil:
				case errors.Is(err, errLimitSatisfied):
					cancel() // prefix complete: stop remaining workers
				case firstErr == nil && cctx.Err() == nil:
					firstErr = err
					cancel()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// A cancel initiated by the caller is an error; a limit-satisfied
	// cancel is success.
	return ctx.Err()
}

// runPartition executes one partition's build + body, converting a panic in
// either into a *PanicError: a bug in one worker fails the query instead of
// killing the process (Run-level recovery cannot see worker goroutines).
func (pe *ParallelExec) runPartition(
	pat *pattern.Pattern,
	p *plan.Node,
	i int,
	local *Context,
	body func(i int, local *Context, root Operator) error,
) (err error) {
	defer func() {
		if perr := RecoverPanic(recover()); perr != nil {
			err = perr
		}
	}()
	root, err := pe.build(pat, p)
	if err != nil {
		return err
	}
	return body(i, local, root)
}
