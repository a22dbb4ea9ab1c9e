package core

import (
	"fmt"

	"wormsim/internal/message"
	"wormsim/internal/network"
	"wormsim/internal/rng"
	"wormsim/internal/routing"
	"wormsim/internal/saf"
	"wormsim/internal/stats"
	"wormsim/internal/telemetry"
	"wormsim/internal/traffic"
)

// BatchResult reports a finite-workload (trace or permutation burst)
// simulation run to completion, measured by makespan rather than
// steady-state sampling.
type BatchResult struct {
	Algorithm string
	Switching Switching
	// Delivered counts completed messages; Dropped those refused by
	// congestion control.
	Delivered int64
	Dropped   int64
	// Makespan is the cycle the last message was delivered.
	Makespan int64
	// Latency statistics over delivered messages (cycles).
	MeanLatency float64
	LatencyP95  float64
	MaxLatency  float64
	// FlitMoves is the total channel traffic.
	FlitMoves int64
	// Telemetry aggregates the run's collector when Config.Telemetry was
	// set (wormhole/vct only).
	Telemetry *telemetry.Summary `json:",omitempty"`
	// TraceEvents is the retained lifecycle trace, kept out of JSON.
	TraceEvents []telemetry.Event `json:"-"`
}

// String renders a one-line summary.
func (r BatchResult) String() string {
	return fmt.Sprintf("%-6s makespan=%d delivered=%d mean=%.1f p95=%.0f max=%.0f",
		r.Algorithm, r.Makespan, r.Delivered, r.MeanLatency, r.LatencyP95, r.MaxLatency)
}

// RunBatch drives the given finite workload (typically a traffic.Trace) to
// completion under cfg's network settings and returns makespan statistics.
// The workload must stop generating eventually; drainBudget caps the cycles
// spent waiting for the network to empty after the last arrival (default
// 1e6).
func RunBatch(cfg Config, wl traffic.Workload, lastArrival int64, drainBudget int64) (BatchResult, error) {
	return runBatchOn(new(network.Network), cfg, wl, lastArrival, drainBudget)
}

// runBatchOn is RunBatch on a caller-supplied wormhole engine (see runOn).
func runBatchOn(eng *network.Network, cfg Config, wl traffic.Workload, lastArrival int64, drainBudget int64) (BatchResult, error) {
	cfg.ApplyDefaults()
	if drainBudget <= 0 {
		drainBudget = 1_000_000
	}
	g := cfg.Grid()
	alg, err := routing.Get(cfg.Algorithm)
	if err != nil {
		return BatchResult{}, err
	}
	policy, err := routing.GetPolicy(cfg.Policy)
	if err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{Algorithm: cfg.Algorithm, Switching: cfg.Switching}
	var hist stats.Histogram
	onDeliver := func(m *message.Message) {
		hist.Add(float64(m.Latency()))
		if m.DeliverTime > res.Makespan {
			res.Makespan = m.DeliverTime
		}
	}
	switch cfg.Switching {
	case Wormhole, CutThrough:
		var tel *telemetry.Collector
		if cfg.Telemetry != nil {
			tel = telemetry.New(*cfg.Telemetry, g.ChannelSlots(), alg.NumVCs(g))
		}
		err := eng.Reset(network.Config{
			Grid: g, Algorithm: alg, Policy: policy, Workload: wl,
			MsgLen: cfg.MsgLen, BufDepth: cfg.BufDepth, CCLimit: cfg.CCLimit,
			InjectionPorts: cfg.InjectionPorts,
			Seed:           cfg.Seed, OnDeliver: onDeliver, Telemetry: tel,
		})
		if err != nil {
			return res, err
		}
		if err := eng.Run(lastArrival + 1); err != nil {
			return res, err
		}
		if err := eng.Drain(drainBudget); err != nil {
			return res, err
		}
		t := eng.Total()
		res.Delivered, res.Dropped, res.FlitMoves = t.Delivered, t.Dropped, t.FlitMoves
		if tel != nil {
			res.Telemetry = tel.Summary()
			res.TraceEvents = tel.Events()
		}
	case StoreFwd:
		n, err := saf.New(saf.Config{
			Grid: g, Algorithm: alg, Policy: policy, Workload: wl,
			MsgLen: cfg.MsgLen, CCLimit: cfg.CCLimit,
			Seed: cfg.Seed, OnDeliver: onDeliver,
		})
		if err != nil {
			return res, err
		}
		if err := n.Run(lastArrival + 1); err != nil {
			return res, err
		}
		if err := n.Drain(drainBudget); err != nil {
			return res, err
		}
		_, _, res.Dropped, res.Delivered = n.Counts()
		res.FlitMoves = n.FlitMoves()
	default:
		return res, fmt.Errorf("core: unknown switching %q", cfg.Switching)
	}
	res.MeanLatency = hist.Mean()
	res.LatencyP95 = hist.Quantile(0.95)
	res.MaxLatency = hist.Max()
	return res, nil
}

// ReplicateBatch runs the permutation-burst experiment once per seed and
// returns the replicas in seed order — the spread of makespans across seeds
// is the batch experiments' error bar. The seeds are independent RunBatch
// calls spread across the work-stealing scheduler, each on its worker's
// recycled engine; results are identical to running each seed sequentially.
func ReplicateBatch(cfg Config, patternSpec string, seeds []uint64, workers int, drainBudget int64) ([]BatchResult, error) {
	out := make([]BatchResult, len(seeds))
	errs := make([]error, len(seeds))
	s := NewScheduler(workers)
	for j := range seeds {
		j := j
		s.Submit(func(w int) {
			c := cfg
			c.Seed = seeds[j]
			burst, err := PermutationBurst(c, patternSpec)
			if err != nil {
				errs[j] = err
				return
			}
			r, err := runBatchOn(s.Engine(w), c, burst, burst.LastCycle(), drainBudget)
			out[j] = r
			if err != nil {
				errs[j] = fmt.Errorf("core: batch replica seed=%#x: %w", seeds[j], err)
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

// PermutationBurst builds a trace that injects every source's message for
// the named permutation pattern at cycle 0 — the "how fast does one
// all-at-once permutation complete" experiment.
func PermutationBurst(cfg Config, patternSpec string) (*traffic.Trace, error) {
	cfg.ApplyDefaults()
	g := cfg.Grid()
	pattern, err := traffic.Parse(g, patternSpec)
	if err != nil {
		return nil, err
	}
	var cycles []int64
	var arrs []traffic.Arrival
	r := rng.NewStream(cfg.Seed, 0xb135)
	for src := 0; src < g.Nodes(); src++ {
		dst := pattern.Dest(src, r)
		if dst < 0 {
			continue
		}
		cycles = append(cycles, 0)
		arrs = append(arrs, traffic.Arrival{Src: src, Dst: dst})
	}
	return traffic.NewTrace(g, patternSpec+"-burst", cycles, arrs), nil
}
