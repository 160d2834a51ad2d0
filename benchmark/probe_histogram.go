package main

import (
	"math"
	"time"

	"sjos/internal/histogram"
	"sjos/internal/pattern"
	"sjos/internal/xmltree"
)

// probeHistogram measures internal/histogram on the generated documents:
// building one document's statistics, merging all of them, one cold join
// estimate, and how far the estimates are from the exact sizes of the joins
// that are not empty.
func probeHistogram(h *harness, docs []*document) error {
	parts := make([]*histogram.Stats, len(docs))
	var build []float64
	for i, d := range docs {
		t0 := time.Now()
		parts[i] = histogram.Build(d.tree, 0)
		build = append(build, ms(time.Since(t0)))
	}
	h.layer["histogram.build_ms"] = median(build)
	h.layer["histogram.merge_us"] = float64(medianOf(21, func() { histogram.Merge(parts) })) / 1e3

	// Every ordered pair of the pers tags on both axes, per document. A fresh
	// Stats has nothing memoised, so each estimate below is computed.
	var estimates int
	var spent time.Duration
	var qerr []float64
	for i, d := range docs {
		var tags []xmltree.TagID
		for t := 0; t < d.tree.NumTags(); t++ {
			tags = append(tags, xmltree.TagID(t))
		}
		for _, a := range tags {
			for _, b := range tags {
				for _, ax := range []pattern.Axis{pattern.Child, pattern.Descendant} {
					t0 := time.Now()
					est := parts[i].EstimateJoin(a, b, ax)
					spent += time.Since(t0)
					estimates++
					exact := float64(histogram.ExactJoinCount(d.tree, a, b, ax))
					if exact == 0 {
						continue // no pattern over this data asks for a join that is empty
					}
					est = math.Max(est, 1)
					qerr = append(qerr, math.Max(est/exact, exact/est))
				}
			}
		}
	}
	h.layer["histogram.estimate_ns"] = float64(spent) / float64(estimates)
	q := sortedCopy(qerr)
	h.layer["histogram.qerror_p50"] = percentile(q, 50)
	h.layer["histogram.qerror_max"] = q[len(q)-1]
	return nil
}
