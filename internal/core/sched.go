package core

import (
	"fmt"
	"sync"

	"wormsim/internal/stats"
)

// Scheduler is a pool of workers pulling simulation work items from one
// FIFO queue. Every caller either queues its whole task list up front (the
// sweeps, through each) or one run at a time (the observatory API), so an
// idle worker taking the oldest queued item is greedy list scheduling: no
// worker sits idle while work is queued.
//
// Work items are whole simulation runs (milliseconds to minutes), so one
// mutex guards the queue: contention on it is unmeasurable at that
// granularity. Each simulation itself stays single-threaded and seeded, so
// any schedule produces results identical to a sequential pass. Items that
// simulate take their engines from Run's pool, so a sweep builds about one
// engine per worker rather than one per point.
type Scheduler struct {
	mu sync.Mutex
	// work wakes idle workers (an item was queued, or the pool closed);
	// drained wakes Close once live reaches zero.
	work, drained *sync.Cond
	queue         []func()
	// live counts submitted-but-unfinished items.
	live   int
	closed bool
	wg     sync.WaitGroup
}

// NewScheduler starts a pool of workers (minimum 1). Close it when done.
func NewScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{}
	s.work = sync.NewCond(&s.mu)
	s.drained = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for range workers {
		go s.worker() //lint:allow purity (worker pool; completion order never escapes — results land by point index)
	}
	return s
}

// Submit queues one work item behind every item queued before it. It may be
// called from inside a running item; Close waits for such items too.
func (s *Scheduler) Submit(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("core: Submit on closed Scheduler")
	}
	s.queue = append(s.queue, fn)
	s.live++
	s.work.Signal()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if len(s.queue) > 0 {
			fn := s.queue[0]
			s.queue[0] = nil
			s.queue = s.queue[1:]
			s.mu.Unlock()
			fn()
			s.mu.Lock()
			if s.live--; s.live == 0 {
				s.drained.Broadcast()
			}
			continue
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.work.Wait()
	}
}

// Close waits for every submitted item, including items submitted by running
// items, and stops the workers. The scheduler cannot be reused afterwards.
// Never call it from inside a work item: a worker waiting on its own pool
// deadlocks it.
func (s *Scheduler) Close() {
	s.mu.Lock()
	for s.live > 0 {
		s.drained.Wait()
	}
	s.closed = true
	s.work.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// each runs fn(i) for every i in [0, n) on a Scheduler of workers workers
// (at most n), queued in index order. Callers write results by index, so
// completion order never shows. It returns the error of the lowest failing
// index.
func each(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	s := NewScheduler(workers)
	for i := 0; i < n; i++ {
		s.Submit(func() { errs[i] = fn(i) })
	}
	s.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReplicatedResult aggregates the replications of one offered load.
type ReplicatedResult struct {
	OfferedLoad float64
	// Replicas holds one Result per seed, in seed order.
	Replicas []Result
	// MeanLatency and MeanThroughput average the non-deadlocked replicas;
	// LatencySpread is the sample standard deviation of their latencies.
	MeanLatency    float64
	LatencySpread  float64
	MeanThroughput float64
	// Deadlocks counts replicas terminated by the watchdog.
	Deadlocks int
}

// SweepReplicated runs cfg at every load once per seed, one scheduler item
// per (load, seed) pair, so a worker that finishes a cheap load picks up
// single replicas of the expensive loads near saturation instead of idling.
// Each replica is an independent point, and its Result equals, field for
// field, Run of the same config at that seed.
// Results are aggregated per load, in load order, with Replicas in seed
// order; they are identical at any worker count.
//
// Deadlocked replicas are recorded in their Result (Deadlocked set, the
// other fields describing the run up to the stall) and counted in
// Deadlocks, not returned as an error; any other error aborts.
//
// Config.Telemetry, Forensics and OnSample attach to the first seed of
// every load only; OnTick fires for every replica (ticks carry their Seed).
// Config.Cache is consulted per seed with the hashes RunCached uses, so
// stores written by either are interchangeable — but only for uninstrumented
// configs, where a stored Result carries everything a run produces.
func SweepReplicated(cfg Config, loads []float64, seeds []uint64, workers int) ([]ReplicatedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: SweepReplicated needs at least one seed")
	}
	out := make([]ReplicatedResult, len(loads))
	for i := range loads {
		out[i] = ReplicatedResult{OfferedLoad: loads[i], Replicas: make([]Result, len(seeds))}
	}
	err := each(workers, len(loads)*len(seeds), func(k int) error {
		i, j := k/len(seeds), k%len(seeds)
		c := cfg
		c.OfferedLoad = loads[i]
		r, err := runReplica(c, seeds[j], j == 0)
		out[i].Replicas[j] = r
		if err != nil {
			return fmt.Errorf("core: replicated sweep at rho=%.3g: %w", loads[i], err)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	for i := range out {
		var lat, thr stats.Welford
		for _, r := range out[i].Replicas {
			if r.Deadlocked {
				out[i].Deadlocks++
				continue
			}
			lat.Add(r.AvgLatency)
			thr.Add(r.Throughput)
		}
		out[i].MeanLatency = lat.Mean()
		out[i].LatencySpread = lat.StdDev()
		out[i].MeanThroughput = thr.Mean()
	}
	return out, nil
}

// runReplica runs the replica of cfg at seed under SweepReplicated's
// contract; observed marks the one replica the instruments attach to.
func runReplica(cfg Config, seed uint64, observed bool) (Result, error) {
	cfg.Seed = seed
	if cfg.Telemetry != nil || cfg.Forensics != nil {
		// Storing the bare siblings of an instrumented replica, or serving it
		// from a store, would mix Results with and without summaries under
		// one call.
		cfg.Cache = nil
	}
	if !observed {
		cfg.Telemetry, cfg.Forensics, cfg.OnSample = nil, nil, nil
	}
	r, _, err := RunCached(cfg)
	if err != nil && !r.Deadlocked {
		return r, fmt.Errorf("core: replica seed=%#x: %w", seed, err)
	}
	return r, nil
}
