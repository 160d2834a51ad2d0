package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sjos"
	"sjos/internal/core"
	"sjos/internal/faultfs"
	"sjos/internal/loadgen"
	"sjos/internal/storage"
)

// loadMethod is the optimizer every lane query runs with: what xqserve plans
// a plan-cache miss with.
const loadMethod = core.ServeMethod

// loadPoolFrames is every arm's buffer pool, per replica store. It is far
// smaller than a populated lane shard's page file (30 to 58 pages), so a
// query's page reads keep reaching the file — and the slow replica's
// injected per-read delay keeps firing — instead of a warm pool hiding it
// after the first queries.
const loadPoolFrames = 4

// loadGeometry is everything the load lane fixes: the corpus (pers documents
// with distinct generator seeds over shards), the loadgen worker pool, the
// ladder of offered rates and how long each is held, and the slow-replica
// arm's injected per-read delay.
type loadGeometry struct {
	docs, shards, clients int
	rates                 []float64
	step, slowRead        time.Duration
}

// The full ladder doubles from well under one core's capacity to past what
// two saturated cores serve, so it brackets the knee of every arm; the quick
// one is the CI smoke.
var (
	loadFull = loadGeometry{docs: 8, shards: 4, clients: 8, step: 3 * time.Second,
		rates: []float64{25, 50, 100, 200, 400}, slowRead: time.Millisecond}
	loadQuick = loadGeometry{docs: 2, shards: 1, clients: 4, step: 500 * time.Millisecond,
		rates: []float64{50, 100}, slowRead: 500 * time.Microsecond}
)

// LoadStep is one arm served at one offered rate. Latency (p50 … max) runs
// from a request's arrival to its completion; wait and service are its two
// parts (loadgen.Result), so queueing can be told from work. SlowReads counts
// the page reads that reached a slowed replica-1 file during the step: the
// injected fault firing.
type LoadStep struct {
	Rate       float64 `json:"offered_rate_per_sec"`
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`
	Errors     int     `json:"errors"`
	Shed       int     `json:"shed"`
	Throughput float64 `json:"throughput_per_sec"`
	P50        float64 `json:"p50_ms"`
	P95        float64 `json:"p95_ms"`
	P99        float64 `json:"p99_ms"`
	Max        float64 `json:"max_ms"`
	WaitP50    float64 `json:"wait_p50_ms"`
	WaitP99    float64 `json:"wait_p99_ms"`
	ServiceP50 float64 `json:"service_p50_ms"`
	ServiceP99 float64 `json:"service_p99_ms"`
	SlowReads  uint64  `json:"slow_replica_reads"`
	Failovers  uint64  `json:"replica_failovers"`
	DrainClean bool    `json:"drain_clean"`
}

// sustained reports whether the step kept up with its offered rate: nothing
// shed, nothing failed, and the queue-wait tail no longer than the service
// tail — a definition read off the run itself, with no budget to choose.
func (s LoadStep) sustained() bool {
	return s.Shed == 0 && s.Errors == 0 && s.WaitP99 <= s.ServiceP99
}

// LoadArm is one corpus configuration taken up the ladder. With Replicas > 1
// replica 1 of every shard is slowed by the geometry's per-read delay. Knee
// is the highest sustained step's rate (0 if none).
type LoadArm struct {
	Name     string     `json:"name"`
	Replicas int        `json:"replicas"`
	Steps    []LoadStep `json:"steps"`
	Knee     float64    `json:"knee_rate_per_sec"`
}

// LoadResult is the load lane's output (BENCH_load.json's result). Serving
// is how many of the shards consistent hashing gave a document.
type LoadResult struct {
	Docs     int       `json:"docs"`
	Shards   int       `json:"shards"`
	Serving  int       `json:"serving_shards"`
	Nodes    int       `json:"nodes"`
	Clients  int       `json:"clients"`
	Method   string    `json:"method"`
	Step     string    `json:"step_duration"`
	SlowRead string    `json:"slow_replica_read_latency"`
	Queries  []string  `json:"queries"`
	Arms     []LoadArm `json:"arms"`
}

// Load offers an open-loop Poisson query stream (the pers query mix, cycled)
// to a sharded corpus at each rate of a fixed ladder, for two arms: one
// healthy replica per shard, and two replicas with one slow. Every step
// builds its own corpus, so steps share nothing.
func Load(quick bool) (*LoadResult, error) {
	g := loadFull
	if quick {
		g = loadQuick
	}
	res := &LoadResult{
		Docs: g.docs, Shards: g.shards, Clients: g.clients, Method: loadMethod.String(),
		Step: g.step.String(), SlowRead: g.slowRead.String(),
		Arms: []LoadArm{
			{Name: "healthy", Replicas: 1},
			{Name: "slow-replica", Replicas: 2},
		},
	}
	for _, q := range Queries() {
		if q.Dataset == "pers" {
			res.Queries = append(res.Queries, q.Source)
		}
	}
	// A process's first step runs while its heap grows to working size on
	// memory the OS hands over page by page — service p50 read 35 ms where the
	// same step served second read 5 ms — so one step is served and discarded.
	if _, _, err := g.serve(res.Arms[0], g.rates[0], res.Queries); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for i := range res.Arms {
		arm := &res.Arms[i]
		for _, rate := range g.rates {
			step, shape, err := g.serve(*arm, rate, res.Queries)
			if err != nil {
				return nil, fmt.Errorf("%s at %.0f/s: %w", arm.Name, rate, err)
			}
			res.Nodes, res.Serving = shape.nodes, shape.serving
			arm.Steps = append(arm.Steps, step)
			if step.sustained() {
				arm.Knee = rate
			}
		}
	}
	return res, nil
}

// serve builds the arm's corpus, slows replica 1 of every shard (after the
// build, so every arm builds at full speed on identical stores), offers the
// query mix at rate for one step, drains, and returns the step with the
// corpus's node count.
func (g loadGeometry) serve(arm LoadArm, rate float64, mix []string) (LoadStep, loadShape, error) {
	var mu sync.Mutex
	var slow []*faultfs.File
	b := sjos.NewCorpusBuilder(&sjos.CorpusOptions{
		PoolFrames:       loadPoolFrames,
		Shards:           g.shards,
		ReplicasPerShard: arm.Replicas,
		ShardPageFile: func(shard, replica int) sjos.PageFile {
			f := faultfs.Wrap(storage.NewMemFile(), faultfs.Policy{})
			if replica == 1 {
				mu.Lock()
				slow = append(slow, f)
				mu.Unlock()
			}
			return f
		},
	})
	for i := 0; i < g.docs; i++ {
		if err := b.AddDataset(fmt.Sprintf("pers-%03d", i), "pers", 1, 1, int64(1+i)); err != nil {
			return LoadStep{}, loadShape{}, err
		}
	}
	c, err := b.Build()
	if err != nil {
		return LoadStep{}, loadShape{}, err
	}
	for _, f := range slow {
		f.SetPolicy(faultfs.Policy{Latency: g.slowRead})
	}

	var next atomic.Int64
	lr, err := loadgen.Run(loadgen.Config{Rate: rate, Duration: g.step, Workers: g.clients, Seed: 1},
		func() error {
			src := mix[int(next.Add(1)-1)%len(mix)]
			_, qerr := c.QueryContext(context.Background(), src,
				sjos.QueryOptions{ExecOptions: sjos.ExecOptions{Method: loadMethod}})
			return qerr
		})
	if err != nil {
		return LoadStep{}, loadShape{}, err
	}
	// SetPolicy zeroed the counters after the build, so this is the step's.
	var slowReads uint64
	for _, f := range slow {
		slowReads += f.Reads()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := c.Drain(drainCtx) == nil

	var shape loadShape
	for _, h := range c.Health() {
		shape.nodes += h.Nodes
		if h.Docs > 0 {
			shape.serving++
		}
	}
	m := c.Metrics().Replica
	return LoadStep{
		Rate: rate, Offered: lr.Offered, Completed: lr.Completed, Errors: lr.Errors, Shed: lr.Shed,
		Throughput: math.Round(lr.Throughput*10) / 10,
		P50:        ms(lr.P50), P95: ms(lr.P95), P99: ms(lr.P99), Max: ms(lr.Max),
		WaitP50: ms(lr.WaitP50), WaitP99: ms(lr.WaitP99),
		ServiceP50: ms(lr.ServiceP50), ServiceP99: ms(lr.ServiceP99),
		SlowReads: slowReads, Failovers: m.Failovers, DrainClean: drained,
	}, shape, nil
}

// loadShape is what a step's corpus looked like: its element nodes and how
// many shards hold at least one document.
type loadShape struct{ nodes, serving int }

// ms is d in milliseconds, to the microsecond.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// Verify reports whether the run is one whose numbers mean anything: every
// step completed queries, failed none and drained cleanly, and the injected
// fault fired exactly where it was armed — page reads reached the slowed
// files in every slow-replica step and none in a healthy one.
func (r *LoadResult) Verify() error {
	for _, arm := range r.Arms {
		for _, s := range arm.Steps {
			switch {
			case s.Completed == 0:
				return fmt.Errorf("%s at %.0f/s: no queries completed", arm.Name, s.Rate)
			case s.Errors > 0:
				return fmt.Errorf("%s at %.0f/s: %d queries failed", arm.Name, s.Rate, s.Errors)
			case !s.DrainClean:
				return fmt.Errorf("%s at %.0f/s: corpus did not drain cleanly", arm.Name, s.Rate)
			case arm.Replicas > 1 && s.SlowReads == 0:
				return fmt.Errorf("%s at %.0f/s: no page read reached a slow replica", arm.Name, s.Rate)
			case arm.Replicas == 1 && s.SlowReads > 0:
				return fmt.Errorf("%s at %.0f/s: %d slow reads with no slow replica", arm.Name, s.Rate, s.SlowReads)
			}
		}
	}
	return nil
}

// RenderLoad formats the ladder for the terminal, one block per arm.
func RenderLoad(r *LoadResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Open-loop load ladder (%d docs / %d shards, %d serving / %d nodes, %s, %d clients, %s a step, slow replica %s a read)\n",
		r.Docs, r.Shards, r.Serving, r.Nodes, r.Method, r.Clients, r.Step, r.SlowRead)
	for _, arm := range r.Arms {
		fmt.Fprintf(&sb, "%s (%d replica(s) a shard): knee %.0f req/s\n", arm.Name, arm.Replicas, arm.Knee)
		fmt.Fprintf(&sb, "  %6s %7s %9s %5s %6s %8s | %8s %8s %8s | %8s %8s | %8s %8s | %10s %9s\n",
			"rate", "offered", "completed", "shed", "errors", "served/s",
			"p50", "p99", "max", "wait p50", "wait p99", "svc p50", "svc p99", "slow reads", "failovers")
		for _, s := range arm.Steps {
			fmt.Fprintf(&sb, "  %6.0f %7d %9d %5d %6d %8.1f | %8.2f %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f | %10d %9d\n",
				s.Rate, s.Offered, s.Completed, s.Shed, s.Errors, s.Throughput,
				s.P50, s.P99, s.Max, s.WaitP50, s.WaitP99, s.ServiceP50, s.ServiceP99, s.SlowReads, s.Failovers)
		}
	}
	sb.WriteString("(latencies in ms, from arrival; knee = highest rate with nothing shed or failed and wait p99 <= service p99)\n")
	return sb.String()
}
