package core

import (
	"fmt"

	"wormsim/internal/network"
)

// FindSaturation locates the saturation load of a configuration by binary
// search: the largest offered load (within tol) whose achieved throughput
// stays within slack of offered. It refines between lo and hi (fractions of
// capacity) and returns the bracketing result at the saturation knee.
//
// This automates reading the "knee" off the paper's throughput curves: the
// offered load where achieved stops tracking offered is where the latency
// curves turn vertical.
func FindSaturation(cfg Config, lo, hi, tol, slack float64) (load float64, at Result, err error) {
	return findSaturationOn(new(network.Network), cfg, lo, hi, tol, slack)
}

// findSaturationOn is FindSaturation with every probe simulated on eng (see
// runOn).
func findSaturationOn(eng *network.Network, cfg Config, lo, hi, tol, slack float64) (load float64, at Result, err error) {
	cfg.ApplyDefaults()
	if !(lo >= 0 && hi > lo) {
		return 0, Result{}, fmt.Errorf("core: bad saturation bracket [%g, %g]", lo, hi)
	}
	if tol <= 0 {
		tol = 0.02
	}
	if slack <= 0 {
		slack = 0.02
	}
	tracks := func(rho float64) (bool, Result, error) {
		c := cfg
		c.OfferedLoad = rho
		r, _, err := runCachedOn(eng, c)
		if r.Deadlocked {
			return false, r, nil
		}
		if err != nil {
			return false, Result{}, err
		}
		return rho-r.Throughput <= slack, r, nil
	}
	// Establish the bracket: lo must track, hi must not. Grow/shrink as
	// needed within [0, 1].
	ok, r, err := tracks(lo)
	if err != nil {
		return 0, r, err
	}
	if !ok {
		return lo, r, nil // saturated below the bracket already
	}
	best := r
	load = lo
	if ok, r, err = tracks(hi); err != nil {
		return 0, r, err
	} else if ok {
		return hi, r, nil // never saturates within the bracket
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		ok, r, err := tracks(mid)
		if err != nil {
			return 0, r, err
		}
		if ok {
			lo, load, best = mid, mid, r
		} else {
			hi = mid
		}
	}
	return load, best, nil
}

// SaturationPoint is one algorithm's saturation knee.
type SaturationPoint struct {
	Algorithm string
	Load      float64
	At        Result
}

// FindSaturationSet locates the saturation load of several algorithms under
// the same configuration, running the searches concurrently on one
// work-stealing scheduler (each search's bisection is inherently sequential,
// but the searches are independent and their costs skew with how early each
// algorithm saturates). Results come back in algorithm order and are
// identical to calling FindSaturation per algorithm.
func FindSaturationSet(cfg Config, algorithms []string, lo, hi, tol, slack float64, workers int) ([]SaturationPoint, error) {
	out := make([]SaturationPoint, len(algorithms))
	errs := make([]error, len(algorithms))
	s := NewScheduler(workers)
	for i, alg := range algorithms {
		i, alg := i, alg
		s.Submit(func(w int) {
			c := cfg
			c.Algorithm = alg
			load, at, err := findSaturationOn(s.Engine(w), c, lo, hi, tol, slack)
			out[i] = SaturationPoint{Algorithm: alg, Load: load, At: at}
			if err != nil {
				errs[i] = fmt.Errorf("core: saturation search for %s: %w", alg, err)
			}
		})
	}
	s.Close()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
