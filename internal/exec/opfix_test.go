package exec

import (
	"errors"
	"testing"
)

// scriptedOp is a test operator: it serves a fixed row list, per rows a
// batch, and can be scripted to fail at a given NextBatch call after leaving
// failRows rows in the batch — what IndexScan does when block k of a batch
// fails with blocks 1…k−1 already appended. It records how often it was
// pulled and closed, and its Close returns closeErr.
type scriptedOp struct {
	schema   *Schema
	tuples   []Tuple
	per      int // rows per batch
	failAt   int // NextBatch index (0-based) that errors; -1 = never
	failRows int // rows the failing call leaves in the batch
	closeErr error

	pos    int
	nexts  int
	closes int
}

var errScripted = errors.New("scripted operator failure")

func newScriptedOp(tuples []Tuple, per, failAt int) *scriptedOp {
	return &scriptedOp{schema: NewSchema(0), tuples: tuples, per: per, failAt: failAt}
}

func (s *scriptedOp) Schema() *Schema         { return s.schema }
func (s *scriptedOp) Open(ctx *Context) error { return nil }
func (s *scriptedOp) Close() error            { s.closes++; return s.closeErr }
func (s *scriptedOp) NextBatch(b *Batch) error {
	b.Reset()
	i := s.nexts
	s.nexts++
	n := s.per
	if s.failAt >= 0 && i == s.failAt {
		n = s.failRows
	}
	for ; n > 0 && s.pos < len(s.tuples); n-- {
		b.AppendRow(s.tuples[s.pos])
		s.pos++
	}
	if s.failAt >= 0 && i == s.failAt {
		return errScripted
	}
	return nil
}

// TestSortLatchesLoadError is the regression test for the mid-stream load
// failure: a Sort whose input errors part-way through must keep returning
// the error on every later NextBatch instead of serving the partial, unsorted
// buffer as if it were valid output.
func TestSortLatchesLoadError(t *testing.T) {
	doc := personnelDoc(t)
	in := newScriptedOp([]Tuple{{3}, {1}}, 1, 2) // two one-row batches, then error
	s, err := NewSort(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, doc)
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(1)
	if err := s.NextBatch(b); !errors.Is(err, errScripted) {
		t.Fatalf("first NextBatch: err=%v, want the load error", err)
	}
	// The old code set loaded=true on failure and then served the partial
	// buffer here.
	if err := s.NextBatch(b); !errors.Is(err, errScripted) || b.Len() != 0 {
		t.Fatalf("second NextBatch after failed load: (%d rows, %v), want latched error", b.Len(), err)
	}
	if in.nexts != 3 {
		t.Fatalf("failed input pulled %d times, want 3 (no pull after the failure)", in.nexts)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLimitClosesUpstreamEarly verifies the doc's early-termination claim:
// the moment the n-th tuple is delivered — alone in its batch, or as part of
// a larger batch that gets truncated — the upstream subtree is Closed, and
// not Closed a second time by Limit.Close. A failure of that early Close is
// latched and surfaces at the end of the stream and from Close.
func TestLimitClosesUpstreamEarly(t *testing.T) {
	errClose := errors.New("scripted close failure")
	for _, per := range []int{1, 3} {
		in := newScriptedOp([]Tuple{{1}, {2}, {3}}, per, -1)
		in.closeErr = errClose
		l := NewLimit(in, 2)
		if err := l.Open(newCtx(t, personnelDoc(t))); err != nil {
			t.Fatal(err)
		}
		b := NewBatch(1)
		for got := 0; got < 2; got += b.Len() {
			if err := l.NextBatch(b); err != nil || b.Len() == 0 || got+b.Len() > 2 {
				t.Fatalf("per=%d: NextBatch after %d rows: %d rows, err=%v", per, got, b.Len(), err)
			}
		}
		if in.closes != 1 {
			t.Fatalf("per=%d: input closed %d times after the cap, want 1 (early close)", per, in.closes)
		}
		// No more pulls after the cap; the early Close's failure ends the stream.
		pulls := in.nexts
		if err := l.NextBatch(b); !errors.Is(err, errClose) || b.Len() != 0 {
			t.Fatalf("per=%d: NextBatch past cap: %d rows, err=%v, want the latched close failure", per, b.Len(), err)
		}
		if in.nexts != pulls {
			t.Fatalf("per=%d: Limit kept pulling upstream past the cap", per)
		}
		if err := l.Close(); !errors.Is(err, errClose) {
			t.Fatalf("per=%d: Close = %v, want the latched close failure", per, err)
		}
		if in.closes != 1 {
			t.Fatalf("per=%d: input closed %d times in total, want exactly 1", per, in.closes)
		}
	}
}

// TestLimitExhaustedInputStopsPulling covers the short-input case: once the
// input reports end of stream, Limit must not pull it again.
func TestLimitExhaustedInputStopsPulling(t *testing.T) {
	in := newScriptedOp([]Tuple{{1}}, 1, -1)
	l := NewLimit(in, 5)
	if err := l.Open(newCtx(t, personnelDoc(t))); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(1)
	if err := l.NextBatch(b); err != nil || b.Len() != 1 {
		t.Fatalf("first batch: %d rows, err=%v", b.Len(), err)
	}
	if err := l.NextBatch(b); err != nil || b.Len() != 0 {
		t.Fatalf("unexpected rows past end: %d, err=%v", b.Len(), err)
	}
	pulls := in.nexts
	if err := l.NextBatch(b); err != nil || b.Len() != 0 {
		t.Fatalf("unexpected rows past end: %d, err=%v", b.Len(), err)
	}
	if in.nexts != pulls {
		t.Fatal("Limit pulled an exhausted input again")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if in.closes != 1 {
		t.Fatalf("input closed %d times, want 1", in.closes)
	}
}

// TestLimitZero keeps the degenerate cap working: no output, no pull,
// exactly one upstream Close (via Limit.Close).
func TestLimitZero(t *testing.T) {
	in := newScriptedOp([]Tuple{{1}}, 1, -1)
	l := NewLimit(in, 0)
	if err := l.Open(newCtx(t, personnelDoc(t))); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(1)
	if err := l.NextBatch(b); err != nil || b.Len() != 0 || in.nexts != 0 {
		t.Fatalf("NextBatch on zero limit: %d rows, %d pulls, err=%v", b.Len(), in.nexts, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if in.closes != 1 {
		t.Fatalf("input closed %d times, want 1", in.closes)
	}
}
