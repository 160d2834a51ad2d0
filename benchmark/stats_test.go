package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {1, 10}, {25, 30},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// The quiet value of repeated work is the nearest-rank lower decile: slow
// repeats, however slow and up to nine in ten of them, do not move it.
func TestQuietIsTheLowerDecile(t *testing.T) {
	v := make([]float64, 30)
	for i := range v {
		v[i] = float64(30 - i) // 30 … 1
	}
	if got := quiet(v); got != 3 {
		t.Errorf("quiet of 1..30 = %v, want 3", got)
	}
	disturbed := []float64{900, 900, 11, 900, 900, 10, 900, 900, 900, 900, 900, 900, 900, 900, 900, 900, 900, 900, 900, 12}
	if got := quiet(disturbed); got != 11 {
		t.Errorf("quiet with 17 of 20 repeats disturbed = %v, want 11", got)
	}
	if got := quiet([]float64{42}); got != 42 {
		t.Errorf("quiet of one repeat = %v, want 42", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
