package main

import (
	"context"
	"fmt"
	"time"

	"sjos/internal/plancache"
)

// probePlanCache times a hit on a full cache of the default capacity.
func probePlanCache(h *harness) error {
	const entries, lookups = 256, 200000
	c := plancache.New[int](entries)
	keys := make([]plancache.Key, entries)
	ctx := context.Background()
	for i := range keys {
		keys[i] = plancache.Key{Fingerprint: fmt.Sprintf("//manager[name=%d]//employee/name", i), Method: 1}
		c.Put(keys[i], i)
	}
	miss := func() (int, error) { return 0, fmt.Errorf("a warm cache computed") }
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		if _, _, err := c.GetOrCompute(ctx, keys[i%entries], miss); err != nil {
			return err
		}
	}
	h.layer["plancache.hit_ns"] = float64(time.Since(t0)) / lookups
	return nil
}
