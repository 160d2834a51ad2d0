package main

import (
	"context"
	"runtime"

	"sjos"
)

// probeCorpus measures what the root package's read path allocates per match
// it returns: runtime.MemStats around one single-threaded Corpus.Run of
// Q.Pers.1.a (≈72 k matches of three nodes each).
func probeCorpus(h *harness, c *sjos.Corpus) error {
	ctx := context.Background()
	pat, err := sjos.ParsePattern(qPers1a)
	if err != nil {
		return err
	}
	opt, err := c.OptimizeContext(ctx, pat, sjos.MethodDPP, 0)
	if err != nil {
		return err
	}
	if _, err := c.Run(ctx, pat, opt.Plan, sjos.RunOptions{}); err != nil { // pages resident
		return err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := c.Run(ctx, pat, opt.Plan, sjos.RunOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	rows := float64(res.Count)
	h.layer["corpus.alloc_bytes_per_row"] = float64(after.TotalAlloc-before.TotalAlloc) / rows
	h.layer["corpus.allocs_per_row"] = float64(after.Mallocs-before.Mallocs) / rows
	return nil
}
