package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// ascending-sorted values: the value at rank ceil(p/100 * n), counted from 1.
// It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples, in 1..n.
// The small subtraction keeps 99.9 % of 10 000 at 9990: in floating point the
// product comes out a hair above it and would round up a whole rank.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(rank, n))
}

// tailPercentiles are the percentiles the tables may print, ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// highestSupported returns the highest of tailPercentiles that still has at
// least ten of the n samples beyond it, and 0 when not even the median does
// (n < 20): a tail read off fewer samples is one slow request, not a tail.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf times fn n times and returns the median duration.
func medianOf(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}
