// Package loadgen generates open-loop query load: arrivals follow a
// Poisson process at a fixed offered rate, independent of how fast the
// system under test completes work. Latency is measured from the arrival
// instant — queueing delay included — so a saturated server shows its real
// tail latency instead of the flattering closed-loop numbers a
// think-time-per-client driver produces (coordinated omission). Each
// request's latency is also reported split into queue wait and service time.
package loadgen

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Config shapes one load run.
type Config struct {
	// Rate is the offered arrival rate in requests per second (> 0).
	Rate float64
	// Duration is how long arrivals are generated; completions past the
	// deadline still finish and are measured.
	Duration time.Duration
	// Workers is the number of concurrent executors draining the arrival
	// queue (<= 0 selects GOMAXPROCS).
	Workers int
	// MaxOutstanding bounds the arrival queue: arrivals past the bound are
	// shed — counted, not executed — modelling a server-side admission
	// queue (<= 0 selects 4 × Workers).
	MaxOutstanding int
	// Seed seeds the arrival process (0 is a valid fixed seed): the same
	// seed offers the same arrival schedule.
	Seed int64
}

// Result reports one load run's accounting and latency distribution.
type Result struct {
	// Offered arrivals split into Started (executed) and Shed (queue full).
	Offered, Started, Shed int
	// Completed and Errors partition the started requests by outcome.
	Completed, Errors int
	// Elapsed is the wall time from first arrival to last completion;
	// Throughput the completed requests per second over it.
	Elapsed    time.Duration
	Throughput float64
	// P50/P95/P99/Max summarize the latency distribution, measured from
	// each request's arrival instant (queueing included).
	P50, P95, P99, Max time.Duration
	// Latency split per request: wait is scheduled arrival to dequeue (time
	// in the arrival queue, plus however late the dispatcher's timer fired),
	// service is dequeue to completion (the do() call), and latency = wait +
	// service.
	WaitP50, WaitP99       time.Duration
	ServiceP50, ServiceP99 time.Duration
}

// sample is one executed request's latency split.
type sample struct{ wait, service time.Duration }

// Run offers cfg.Rate arrivals per second for cfg.Duration, executing each
// accepted arrival as one do() call on a worker pool, and reports the run's
// accounting and latency quantiles. do must be safe for concurrent calls.
func Run(cfg Config, do func() error) (Result, error) {
	res, _, err := run(cfg, do)
	return res, err
}

// run is Run, also returning every executed request's sample.
func run(cfg Config, do func() error) (Result, []sample, error) {
	if cfg.Rate <= 0 {
		return Result{}, nil, errors.New("loadgen: Rate must be > 0")
	}
	if cfg.Duration <= 0 {
		return Result{}, nil, errors.New("loadgen: Duration must be > 0")
	}
	if do == nil {
		return Result{}, nil, errors.New("loadgen: nil workload")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queueCap := cfg.MaxOutstanding
	if queueCap <= 0 {
		queueCap = 4 * workers
	}

	var res Result
	queue := make(chan time.Time, queueCap)
	samples := make([][]sample, workers)
	errCounts := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for arrived := range queue {
				begun := time.Now()
				err := do()
				samples[w] = append(samples[w], sample{begun.Sub(arrived), time.Since(begun)})
				if err != nil {
					errCounts[w]++
				}
			}
		}(w)
	}

	// Open-loop dispatcher: the next arrival is scheduled from the
	// previous arrival's instant, never from a completion, so a slow
	// server faces an ever-deeper queue instead of a politely waiting
	// client.
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	next := start
	deadline := start.Add(cfg.Duration)
	for next.Before(deadline) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		res.Offered++
		select {
		case queue <- next:
			res.Started++
		default:
			res.Shed++
		}
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
	}
	close(queue)
	wg.Wait()
	res.Elapsed = time.Since(start)

	var all []sample
	for w := range samples {
		all = append(all, samples[w]...)
		res.Errors += errCounts[w]
	}
	res.Completed = len(all) - res.Errors
	if len(all) > 0 {
		lat := sorted(all, func(s sample) time.Duration { return s.wait + s.service })
		res.P50 = percentile(lat, 0.50)
		res.P95 = percentile(lat, 0.95)
		res.P99 = percentile(lat, 0.99)
		res.Max = lat[len(lat)-1]
		wait := sorted(all, func(s sample) time.Duration { return s.wait })
		res.WaitP50, res.WaitP99 = percentile(wait, 0.50), percentile(wait, 0.99)
		service := sorted(all, func(s sample) time.Duration { return s.service })
		res.ServiceP50, res.ServiceP99 = percentile(service, 0.50), percentile(service, 0.99)
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Completed) / s
	}
	return res, all, nil
}

// sorted returns one component of every sample in ascending order.
func sorted(all []sample, of func(sample) time.Duration) []time.Duration {
	ds := make([]time.Duration, len(all))
	for i, s := range all {
		ds[i] = of(s)
	}
	slices.Sort(ds)
	return ds
}

// percentile picks the nearest-rank quantile of a sorted sample: the
// ceil(q·n)-th order statistic, so no reported percentile ever understates
// the sample (rounding the rank down would report e.g. the 9th of 10 samples
// as the p92).
func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
