package core

import (
	"fmt"
	"sync"

	"wormsim/internal/network"
	"wormsim/internal/stats"
)

// Scheduler is a work-stealing pool for simulation work items. Each worker
// owns a deque: it pushes and pops spawned work at the tail (children run
// first, preserving locality of a load's replications) while idle workers
// steal from the head (the oldest, typically largest pieces of work). This
// keeps every core busy even when per-item costs are wildly skewed — near
// saturation one offered load can cost an order of magnitude more than the
// rest of its sweep.
//
// Work items are whole simulation runs (milliseconds to minutes), so the
// deques share one mutex: contention on it is unmeasurable at that
// granularity, and a single lock keeps the scheduler trivially race-clean.
// Each simulation itself stays single-threaded and seeded, so any schedule
// produces results identical to a sequential pass.
//
// Every worker owns one wormhole engine (Engine) that its items re-initialise
// and run on in turn, so a sweep allocates an engine per worker rather than
// per point.
type Scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond
	// deques[w] is worker w's deque; head indexes the next stealable item
	// (the slice is compacted when drained).
	deques []dequeOf
	// live counts submitted-but-unfinished items; next round-robins external
	// submissions across deques.
	live   int
	next   int
	closed bool
	wg     sync.WaitGroup
	// engines[w] is worker w's recycled engine.
	engines []network.Network
}

type dequeOf struct {
	head  int
	items []func(worker int)
}

// NewScheduler starts a pool of workers (minimum 1). Close it when done.
func NewScheduler(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	s := &Scheduler{deques: make([]dequeOf, workers), engines: make([]network.Network, workers)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker(w) //lint:allow purity (worker pool; completion order never escapes — results land by point index)
	}
	return s
}

// Workers returns the pool size.
func (s *Scheduler) Workers() int { return len(s.deques) }

// Engine returns the engine reserved for the items worker runs. A worker
// runs one item at a time, so an item may use its worker's engine without
// locking — for as long as it runs, and never another worker's.
func (s *Scheduler) Engine(worker int) *network.Network { return &s.engines[worker] }

// Submit enqueues one work item from outside the pool, distributing
// round-robin across the worker deques. The item receives the id of the
// worker that runs it, which it may pass to Spawn.
func (s *Scheduler) Submit(fn func(worker int)) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("core: Submit on closed Scheduler")
	}
	w := s.next % len(s.deques)
	s.next++
	s.push(w, fn)
	s.mu.Unlock()
}

// Spawn enqueues a child item at the tail of worker's own deque: the
// spawning worker picks it up next (LIFO) unless an idle worker steals it
// from the head first. Call it only from inside a running item, with the
// worker id that item received.
func (s *Scheduler) Spawn(worker int, fn func(worker int)) {
	s.mu.Lock()
	s.push(worker, fn)
	s.mu.Unlock()
}

// push appends to worker w's deque and wakes a sleeper. Callers hold mu.
func (s *Scheduler) push(w int, fn func(worker int)) {
	s.deques[w].items = append(s.deques[w].items, fn)
	s.live++
	s.cond.Signal()
}

// pop takes worker w's newest own item, else steals the oldest item from
// another deque, scanning victims round-robin from w+1. Callers hold mu.
func (s *Scheduler) pop(w int) func(worker int) {
	if d := &s.deques[w]; d.head < len(d.items) {
		fn := d.items[len(d.items)-1]
		d.items = d.items[:len(d.items)-1]
		d.compact()
		return fn
	}
	for i := 1; i < len(s.deques); i++ {
		if d := &s.deques[(w+i)%len(s.deques)]; d.head < len(d.items) {
			fn := d.items[d.head]
			d.items[d.head] = nil
			d.head++
			d.compact()
			return fn
		}
	}
	return nil
}

// compact resets a drained deque so its backing array is reused.
func (d *dequeOf) compact() {
	if d.head == len(d.items) {
		d.head, d.items = 0, d.items[:0]
	}
}

func (s *Scheduler) worker(w int) {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if fn := s.pop(w); fn != nil {
			s.mu.Unlock()
			fn(w)
			s.mu.Lock()
			if s.live--; s.live == 0 {
				s.cond.Broadcast()
			}
			continue
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.cond.Wait()
	}
}

// Wait blocks until every submitted item (including spawned children) has
// finished. Never call it from inside a work item — a worker waiting on its
// own pool deadlocks it.
func (s *Scheduler) Wait() {
	s.mu.Lock()
	for s.live > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close waits for outstanding work and stops the workers. The scheduler
// cannot be reused afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	for s.live > 0 {
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
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

// SweepReplicated runs cfg at every load once per seed, fanning the (load,
// seed) matrix through one work-stealing scheduler: each load is submitted
// as an item that spawns one child per seed onto the running worker's deque,
// so a worker that finishes a cheap load steals single replicas of the
// expensive loads near saturation instead of idling. Each replica is an
// independent point on its worker's recycled engine, under RunReplicas'
// contract (instruments attach to the first seed of every load, the cache is
// consulted per seed). Results are aggregated per load, in load order; they
// are identical to running every (load, seed) pair sequentially. Deadlocked
// replicas are recorded, not fatal; any other error aborts.
func SweepReplicated(cfg Config, loads []float64, seeds []uint64, workers int) ([]ReplicatedResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: SweepReplicated needs at least one seed")
	}
	out := make([]ReplicatedResult, len(loads))
	errs := make([]error, len(loads)*len(seeds))
	s := NewScheduler(workers)
	for i := range loads {
		out[i] = ReplicatedResult{OfferedLoad: loads[i], Replicas: make([]Result, len(seeds))}
		i := i
		s.Submit(func(w int) {
			for j := range seeds {
				j := j
				s.Spawn(w, func(w int) {
					c := cfg
					c.OfferedLoad = loads[i]
					r, err := runReplica(s.Engine(w), c, seeds[j], j == 0)
					out[i].Replicas[j] = r
					if err != nil {
						errs[i*len(seeds)+j] = fmt.Errorf("core: replicated sweep at rho=%.3g: %w", loads[i], err)
					}
				})
			}
		})
	}
	s.Close()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
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
