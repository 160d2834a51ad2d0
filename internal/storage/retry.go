package storage

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy bounds how the buffer pool re-reads a page after a transient
// failure or a checksum mismatch: exponential backoff starting at BaseDelay,
// doubling per attempt, capped at MaxDelay, with a ±Jitter fraction of
// randomisation so concurrent retries de-synchronise. All waits are
// context-aware — a cancelled query abandons its backoff immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of read attempts, including the
	// first. 0 selects DefaultRetryPolicy's value; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the wait before the second attempt; each further wait
	// doubles it. 0 selects DefaultRetryPolicy's value.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 selects DefaultRetryPolicy's value).
	MaxDelay time.Duration
	// Jitter randomises each wait by ±(Jitter × delay); 0 <= Jitter <= 1.
	Jitter float64
}

// DefaultRetryPolicy is the pool's out-of-the-box policy: four attempts with
// 200µs/400µs/800µs backoffs — enough to ride out a torn read or a flaky
// I/O burst without stretching a doomed query past a few milliseconds.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseDelay:   200 * time.Microsecond,
	MaxDelay:    10 * time.Millisecond,
	Jitter:      0.25,
}

// normalized fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// backoff returns the wait before attempt+1 (attempt counts completed
// attempts, so the first retry passes 1).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay << uint(attempt-1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		// rand's global source is concurrency-safe; retry determinism is
		// not needed (tests assert outcomes, not wait lengths).
		f := 1 + p.Jitter*(2*rand.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// sleep waits for d or until ctx is cancelled, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs op until it succeeds, fails with an error that is not transient,
// or has been tried MaxAttempts times, waiting out the policy's backoff
// between attempts — the pool's treatment of a flaky page read, for an
// operation that is more than one read (opening a log).
func (p RetryPolicy) Do(ctx context.Context, op func() error) error {
	p = p.normalized()
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !IsTransient(err) || attempt >= p.MaxAttempts {
			return err
		}
		if serr := sleep(ctx, p.backoff(attempt)); serr != nil {
			return serr
		}
	}
}
