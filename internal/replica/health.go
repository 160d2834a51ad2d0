// Package replica tracks the health of shard replicas for routing
// decisions. Each replica of a shard's store gets one Tracker: consecutive
// read failures walk it Healthy → Suspect → Probation, any success snaps it
// back to Healthy, and a degraded replica is half-open — at most one probe
// request per ProbeInterval is let through to discover recovery (or, for a
// suspect replica, to keep its state machine decaying toward probation),
// everything else routes around it.
package replica

import (
	"sync"
	"time"
)

// State is a replica's routing condition.
type State int32

const (
	// Healthy replicas take traffic in rotation.
	Healthy State = iota
	// Suspect replicas (a few consecutive failures) are deprioritised:
	// they serve only as failover targets behind healthy ones.
	Suspect
	// Probation replicas (sustained consecutive failures) are routed
	// around entirely, except for one half-open probe per ProbeInterval.
	Probation
)

// String renders the state for health endpoints and logs.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Probation:
		return "probation"
	}
	return "unknown"
}

// Config shapes the state machine. The zero value selects the defaults.
type Config struct {
	// SuspectAfter is the consecutive-failure count that moves a healthy
	// replica to Suspect (default 2).
	SuspectAfter int
	// ProbationAfter is the consecutive-failure count that moves a suspect
	// replica to Probation (default 4). Must be >= SuspectAfter.
	ProbationAfter int
	// ProbeInterval spaces the half-open probes of a probation replica
	// (default 500ms).
	ProbeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.ProbationAfter <= 0 {
		c.ProbationAfter = 4
	}
	if c.ProbationAfter < c.SuspectAfter {
		c.ProbationAfter = c.SuspectAfter
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	return c
}

// Tracker is one replica's health state machine. All methods are safe for
// concurrent use.
type Tracker struct {
	cfg Config

	mu          sync.Mutex
	state       State
	consecFails int
	lastProbe   time.Time
	failures    uint64
	successes   uint64
}

// NewTracker returns a Healthy tracker under the given config.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg.withDefaults()}
}

// State returns the replica's current routing state.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// RecordSuccess notes one successful request: the consecutive-failure run
// ends and the replica returns to Healthy (the half-open probe succeeding is
// exactly this path).
func (t *Tracker) RecordSuccess() {
	t.mu.Lock()
	t.successes++
	t.consecFails = 0
	t.state = Healthy
	t.mu.Unlock()
}

// RecordFailure notes one failed request (an I/O error, a checksum failure
// that survived the retry loop, or a recovered panic) and applies the
// Healthy → Suspect → Probation transitions.
func (t *Tracker) RecordFailure() {
	t.mu.Lock()
	t.failures++
	t.consecFails++
	switch {
	case t.consecFails >= t.cfg.ProbationAfter:
		t.state = Probation
	case t.consecFails >= t.cfg.SuspectAfter:
		t.state = Suspect
	}
	t.mu.Unlock()
}

// AllowProbe reports whether a degraded (suspect or probation) replica's
// half-open probe is due at now, and if so claims it: at most one caller per
// ProbeInterval gets true, so exactly one request is let through to test
// recovery — without it a degraded replica behind a healthy sibling would
// never see traffic again, so it could neither decay to probation nor heal.
// For Healthy replicas it returns false — they are routed normally.
func (t *Tracker) AllowProbe(now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == Healthy {
		return false
	}
	if !t.lastProbe.IsZero() && now.Sub(t.lastProbe) < t.cfg.ProbeInterval {
		return false
	}
	t.lastProbe = now
	return true
}

// Snapshot is a point-in-time copy of a tracker's counters.
type Snapshot struct {
	State               State
	ConsecutiveFailures int
	Failures, Successes uint64
}

// Snapshot returns the tracker's current state and counters.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Snapshot{
		State:               t.state,
		ConsecutiveFailures: t.consecFails,
		Failures:            t.failures,
		Successes:           t.successes,
	}
}
