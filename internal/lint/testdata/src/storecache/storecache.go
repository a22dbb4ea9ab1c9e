// Package storecache is a wormlint test fixture for the run-store cache
// path: a Sweep-like root consults a store before simulating, so every
// function on the cache-hit branch — including the store's own Lookup —
// is part of the determinism contract. The violations live in the store
// subpackage; constructs here are all legal. This pins the guarantee that
// a warm-store rerun stays bit-identical: nothing the cache-hit branch
// reaches may read the wall clock.
package storecache

import "wormsim/internal/lint/testdata/src/storecache/store"

// Result mimics a simulation result.
type Result struct{ Latency float64 }

// Sink absorbs values so the fixture has no unused results.
var Sink any

// simulate stands in for the engine: pure, so nothing to flag.
func simulate(load float64) Result { return Result{Latency: 10 * load} }

// Sweep is the determinism root: for each point it first tries the store
// (the cache-hit branch) and only simulates on a miss — exactly the shape
// of core.RunFigure with a Config.Cache attached.
func Sweep(s *store.Store, loads []float64) []Result {
	out := make([]Result, 0, len(loads))
	for _, load := range loads {
		if rec, ok := s.Lookup(load); ok { // cache hit: zero cycles simulated
			out = append(out, Result{Latency: rec})
			continue
		}
		r := simulate(load)
		s.Put(load, r.Latency)
		out = append(out, r)
	}
	return out
}
