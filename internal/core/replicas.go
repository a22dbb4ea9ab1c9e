package core

import (
	"fmt"

	"wormsim/internal/network"
)

// RunReplicas executes one simulation point at each seed and returns the
// Results in seed order; every replica's Result is equal, field for field,
// to Run of the same config at that seed. The replicas are independent
// event-driven points run back to back on one recycled engine — past
// saturation, where replicated sweeps spend their time, that beats stepping
// them in lockstep, because a parked header costs nothing while a lockstep
// kernel retries every blocked header of every replica each cycle (DESIGN.md
// §6).
//
// Deadlocked replicas are recorded in their Result (Deadlocked set, the
// other fields describing the run up to the stall) rather than returned as
// an error — the Sweep convention. The error return covers setup failures
// only.
//
// Config.Telemetry, Forensics and OnSample attach to the first replica
// only; OnTick fires for every replica (ticks carry their Seed).
// Config.Cache is consulted per seed with the hashes RunCached uses, so
// stores written by either are interchangeable — but only for uninstrumented
// configs, where a stored Result carries everything a run produces.
func RunReplicas(cfg Config, seeds []uint64) ([]Result, error) {
	results := make([]Result, len(seeds))
	eng := new(network.Network)
	for i, seed := range seeds {
		r, err := runReplica(eng, cfg, seed, i == 0)
		results[i] = r
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// runReplica runs the replica of cfg at seed on eng under RunReplicas'
// contract; observed marks the one replica the instruments attach to.
func runReplica(eng *network.Network, cfg Config, seed uint64, observed bool) (Result, error) {
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
	r, _, err := runCachedOn(eng, cfg)
	if err != nil && !r.Deadlocked {
		return r, fmt.Errorf("core: replica seed=%#x: %w", seed, err)
	}
	return r, nil
}
