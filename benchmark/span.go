package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// identifier; Parent is the index, in the span file, of the span that caused
// this one, or -1 for a request's root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the trace began
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory; nothing is written until the run ends, and
// end-to-end runs never create one.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and for
// children's parent.
func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// in times fn as a child span of parent.
func (t *tracer) in(name string, parent, request int, fn func()) {
	id := t.begin(name, parent, request)
	fn()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part of it its direct
// children cover: the time spent in that layer and in no layer below it.
// Children of one parent do not overlap here (replay is single-threaded), so
// the covered part is the sum of their durations.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// durations lists the durations, in ms, of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
