package main

import (
	"context"
	"strings"
	"time"

	"sjos"
)

// probeCore runs every optimizer, uncached, over the plan_cold templates at
// two salary bounds each, and then runs the plan it chose count-only: search
// time, search effort, and the quality of what was found.
func probeCore(h *harness, c *sjos.Corpus) error {
	ctx := context.Background()
	var pats []*sjos.Pattern
	for _, t := range planColdTemplates {
		for _, bound := range []string{"105000", "115000"} {
			p, err := sjos.ParsePattern(strings.ReplaceAll(t, "$C", bound))
			if err != nil {
				return err
			}
			pats = append(pats, p)
		}
	}
	for _, cm := range coreMethods {
		m, err := sjos.ParseMethod(cm.parse)
		if err != nil {
			return err
		}
		var planMs, execMs, considered []float64
		for _, p := range pats {
			t0 := time.Now()
			opt, err := c.OptimizeContext(ctx, p, m, 0)
			if err != nil {
				return err
			}
			planMs = append(planMs, ms(time.Since(t0)))
			considered = append(considered, float64(opt.Counters.PlansConsidered))
			t0 = time.Now()
			if _, err := c.Run(ctx, p, opt.Plan, sjos.RunOptions{CountOnly: true}); err != nil {
				return err
			}
			execMs = append(execMs, ms(time.Since(t0)))
		}
		h.layer["core."+cm.metric+".plan_ms"] = median(planMs)
		h.layer["core."+cm.metric+".exec_ms"] = median(execMs)
		h.layer["core."+cm.metric+".plans_considered"] = median(considered)
	}
	return nil
}
