package core

import (
	"cmp"
	"fmt"
	"sync"

	"wormsim/internal/stats"
)

// each runs fn(i) for every i in [0, n) on min(workers, n) goroutines (at
// least one when n > 0), which take the indices in increasing order from one
// mutex-guarded counter; items are whole runs, so contention is negligible.
// Callers write results by index, so completion order never shows. It
// returns the error of the lowest failing index.
func each(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for range min(max(workers, 1), n) {
		wg.Add(1)
		go func() { //lint:allow purity (worker pool; completion order never escapes — results land by point index)
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
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

// SweepReplicated runs cfg at every load once per seed, each (load, seed)
// pair its own index of the fan-out, so a worker that finishes a cheap load
// picks up single replicas of the expensive loads near saturation instead of
// idling.
// A replica is a point: RunCached of cfg at that load and seed, so
// instruments, hooks and the cache apply to every replica as they apply to
// a RunFigure point, and each Result equals, field for field, Run of the
// same config at that seed. Hooks fire from whichever worker ran the replica
// and must be safe for concurrent use.
// Results are aggregated per load, in load order, with Replicas in seed
// order; they are identical at any worker count.
//
// Deadlocked replicas are recorded in their Result (Deadlocked set, the
// other fields describing the run up to the stall) and counted in
// Deadlocks, not returned as an error; any other error aborts.
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
		c.OfferedLoad, c.Seed = loads[i], seeds[j]
		r, _, err := RunCached(c)
		out[i].Replicas[j] = r
		if err != nil && !r.Deadlocked {
			return fmt.Errorf("core: replicated sweep at rho=%.3g: core: replica seed=%#x: %w", loads[i], seeds[j], err)
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
