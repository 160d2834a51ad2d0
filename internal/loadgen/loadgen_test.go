package loadgen

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAccounting(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(Config{Rate: 2000, Duration: 100 * time.Millisecond, Workers: 4, MaxOutstanding: 8, Seed: 1},
		func() error {
			calls.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Started == 0 || res.Completed == 0 {
		t.Fatalf("no work ran: %+v", res)
	}
	if res.Offered != res.Started+res.Shed {
		t.Fatalf("offered %d != started %d + shed %d", res.Offered, res.Started, res.Shed)
	}
	if res.Completed+res.Errors != res.Started {
		t.Fatalf("completed %d + errors %d != started %d", res.Completed, res.Errors, res.Started)
	}
	if int(calls.Load()) != res.Started {
		t.Fatalf("workload ran %d times, started %d", calls.Load(), res.Started)
	}
	// 4 workers at 1 ms service time serve ~4000/s; offering 2000/s with
	// an 8-deep queue must shed only under scheduling jitter, and the
	// latency floor is the service time.
	if res.P50 < time.Millisecond {
		t.Fatalf("p50 %v below the service time", res.P50)
	}
	if res.P50 > res.P95 || res.P95 > res.P99 || res.P99 > res.Max {
		t.Fatalf("quantiles out of order: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
}

func TestRunShedsWhenSaturated(t *testing.T) {
	// One worker at 5 ms per request serves 200/s; offering 2000/s with a
	// 2-deep queue must shed most arrivals rather than queue unboundedly.
	res, err := Run(Config{Rate: 2000, Duration: 80 * time.Millisecond, Workers: 1, MaxOutstanding: 2, Seed: 2},
		func() error { time.Sleep(5 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("saturated run shed nothing: %+v", res)
	}
	if res.Started > res.Offered/2 {
		t.Fatalf("started %d of %d offered — queue bound not enforced", res.Started, res.Offered)
	}
	// With the queue always full, a typical request waits out at least the
	// service in progress: queueing, not service, is what grew.
	if res.WaitP50 < res.ServiceP50/2 {
		t.Fatalf("saturated run waited p50 %v against a service p50 of %v", res.WaitP50, res.ServiceP50)
	}
}

// TestRunSplitsWaitAndService: per request, latency is queue wait plus
// service time; the reported latency quantiles are those of the sums; and at
// a rate far below capacity (8 workers at 20 ms serve 400/s, offered 50/s) a
// request is dequeued as it arrives, so wait — which is counted from the
// scheduled arrival and so includes the dispatcher's timer overshoot, around
// a millisecond here — is noise beside service.
func TestRunSplitsWaitAndService(t *testing.T) {
	const service = 20 * time.Millisecond
	res, samples, err := run(Config{Rate: 50, Duration: 400 * time.Millisecond, Workers: 8, Seed: 4},
		func() error { time.Sleep(service); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || len(samples) != res.Started || res.Shed != 0 {
		t.Fatalf("%d samples for %d started, %d shed", len(samples), res.Started, res.Shed)
	}
	lat := make([]time.Duration, len(samples))
	for i, s := range samples {
		if s.wait < 0 || s.service < service {
			t.Fatalf("request %d: wait %v, service %v under a %v workload", i, s.wait, s.service, service)
		}
		lat[i] = s.wait + s.service
	}
	slices.Sort(lat)
	if res.P50 != percentile(lat, 0.50) || res.P99 != percentile(lat, 0.99) || res.Max != lat[len(lat)-1] {
		t.Fatalf("reported latency %v/%v/%v is not that of wait + service per request", res.P50, res.P99, res.Max)
	}
	if res.ServiceP50 < service || res.ServiceP50 > res.ServiceP99 || res.WaitP50 > res.WaitP99 {
		t.Fatalf("split quantiles out of order: %+v", res)
	}
	if res.WaitP50 > service/10 || res.WaitP99 > service/2 {
		t.Fatalf("unloaded run queued: wait p50 %v p99 %v against service p50 %v", res.WaitP50, res.WaitP99, res.ServiceP50)
	}
}

func TestRunCountsErrors(t *testing.T) {
	boom := errors.New("boom")
	res, err := Run(Config{Rate: 1000, Duration: 50 * time.Millisecond, Workers: 2, Seed: 3},
		func() error { return boom })
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != res.Started || res.Completed != 0 {
		t.Fatalf("all calls failed but accounting says %+v", res)
	}
}

func TestRunValidates(t *testing.T) {
	if _, err := Run(Config{Rate: 0, Duration: time.Second}, func() error { return nil }); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(Config{Rate: 1, Duration: 0}, func() error { return nil }); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Run(Config{Rate: 1, Duration: time.Second}, nil); err == nil {
		t.Fatal("nil workload accepted")
	}
}

// TestPercentileNearestRank pins the documented nearest-rank definition
// (ceil(q·n)-1, 0-indexed) on awkward (q, n) pairs. The old implementation
// rounded the rank (int(q·n+0.5)-1), which e.g. reported the 9th of 10
// samples as the p92 — understating tails.
func TestPercentileNearestRank(t *testing.T) {
	mk := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	cases := []struct {
		q    float64
		n    int
		want int // 1-based rank = sample value in ms
	}{
		{0.92, 10, 10}, // ceil(9.2) = 10; rounding gave 9
		{0.50, 10, 5},
		{0.95, 10, 10}, // ceil(9.5) = 10; rounding gave 10 too, but by luck
		{0.99, 100, 99},
		{0.999, 100, 100}, // ceil(99.9) = 100; rounding gave 100
		{0.95, 100, 95},
		{0.95, 3, 3}, // ceil(2.85) = 3; rounding gave 3
		{0.25, 3, 1}, // ceil(0.75) = 1; rounding gave 1
		{0.10, 4, 1}, // ceil(0.4) = 1; rounding gave 0 → clamped to 1
		{0.51, 2, 2}, // ceil(1.02) = 2; rounding gave 1
		{0.50, 1, 1},
		{1.00, 7, 7},
	}
	for _, c := range cases {
		got := percentile(mk(c.n), c.q)
		want := time.Duration(c.want) * time.Millisecond
		if got != want {
			t.Errorf("percentile(q=%v, n=%d) = %v, want %v (rank %d)", c.q, c.n, got, want, c.want)
		}
	}
}

// TestRunAccountingProperty checks the accounting invariants across seeds
// and mixed success/failure workloads: every offered arrival is either
// started or shed, and every started request completes or errors — nothing
// is double-counted or lost, at any interleaving.
func TestRunAccountingProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		var n atomic.Int64
		res, err := Run(Config{
			Rate:           1500,
			Duration:       60 * time.Millisecond,
			Workers:        3,
			MaxOutstanding: 4,
			Seed:           seed,
		}, func() error {
			if n.Add(1)%3 == 0 {
				return errors.New("synthetic failure")
			}
			time.Sleep(500 * time.Microsecond)
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Offered != res.Started+res.Shed {
			t.Fatalf("seed %d: Offered %d != Started %d + Shed %d", seed, res.Offered, res.Started, res.Shed)
		}
		if res.Started != res.Completed+res.Errors {
			t.Fatalf("seed %d: Started %d != Completed %d + Errors %d", seed, res.Started, res.Completed, res.Errors)
		}
		if int(n.Load()) != res.Started {
			t.Fatalf("seed %d: workload ran %d times, Started %d", seed, n.Load(), res.Started)
		}
		if res.Started > 0 && (res.P50 > res.P95 || res.P95 > res.P99 || res.P99 > res.Max) {
			t.Fatalf("seed %d: quantiles out of order: %+v", seed, res)
		}
	}
}
