package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// request [0,100) ─ parse [0,10) ─ plancache.get [10,60) ─ core.plan [15,55)
	//                  └ corpus.run [60,90)
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "pattern.parse", Start: 0, End: 10, Parent: 0},
		{Name: "plancache.get", Start: 10, End: 60, Parent: 0},
		{Name: "core.plan", Start: 15, End: 55, Parent: 2},
		{Name: "corpus.run", Start: 60, End: 90, Parent: 0},
	}
	want := []time.Duration{10, 10, 10, 40, 30}
	got := selfTimes(spans)
	var sum time.Duration
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 7)
	tr.in("pattern.parse", root, 7, func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if r, c := tr.spans[0], tr.spans[1]; c.Start < r.Start || c.End > r.End || c.End < c.Start {
		t.Errorf("child %+v not inside root %+v", c, r)
	}
	if got := tr.durations("pattern.parse"); len(got) != 1 {
		t.Errorf("durations = %v", got)
	}
}
