package replica

import (
	"sync"
	"testing"
	"time"
)

func TestTrackerTransitions(t *testing.T) {
	tr := NewTracker(Config{SuspectAfter: 2, ProbationAfter: 4, ProbeInterval: time.Hour})
	if tr.State() != Healthy {
		t.Fatalf("new tracker state = %v, want healthy", tr.State())
	}
	tr.RecordFailure()
	if tr.State() != Healthy {
		t.Fatalf("after 1 failure: %v, want healthy", tr.State())
	}
	tr.RecordFailure()
	if tr.State() != Suspect {
		t.Fatalf("after 2 failures: %v, want suspect", tr.State())
	}
	tr.RecordFailure()
	tr.RecordFailure()
	if tr.State() != Probation {
		t.Fatalf("after 4 failures: %v, want probation", tr.State())
	}
	// Any success snaps back to Healthy and resets the run.
	tr.RecordSuccess()
	if tr.State() != Healthy {
		t.Fatalf("after success: %v, want healthy", tr.State())
	}
	s := tr.Snapshot()
	if s.ConsecutiveFailures != 0 || s.Failures != 4 || s.Successes != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestTrackerHalfOpenProbe(t *testing.T) {
	tr := NewTracker(Config{SuspectAfter: 1, ProbationAfter: 1, ProbeInterval: time.Minute})
	now := time.Now()
	if tr.AllowProbe(now) {
		t.Fatal("healthy replica granted a probe")
	}
	tr.RecordFailure()
	if tr.State() != Probation {
		t.Fatalf("state = %v, want probation", tr.State())
	}
	if !tr.AllowProbe(now) {
		t.Fatal("first probe denied")
	}
	if tr.AllowProbe(now.Add(30 * time.Second)) {
		t.Fatal("second probe granted inside the interval")
	}
	if !tr.AllowProbe(now.Add(2 * time.Minute)) {
		t.Fatal("probe denied after the interval elapsed")
	}
}

func TestTrackerDefaultsAndConcurrency(t *testing.T) {
	tr := NewTracker(Config{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if (i+j)%3 == 0 {
					tr.RecordSuccess()
				} else {
					tr.RecordFailure()
				}
				tr.State()
				tr.AllowProbe(time.Now())
			}
		}(i)
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Failures+s.Successes != 800 {
		t.Fatalf("lost events: %+v", s)
	}
}
