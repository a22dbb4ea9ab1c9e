package main

import (
	"fmt"
	"runtime"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// method is the sampling methodology every workload point runs under.
type method struct {
	warmup, sample, gap int64
	maxSamples          int
}

// quick is exactly `figures -quick`: the methodology the paper's figures
// are regenerated with in CI, and the one the workload timings are quoted
// for. Never shrink it to make a run fit; drop rounds instead.
var quick = method{warmup: 2000, sample: 1000, gap: 300, maxSamples: 5}

// paperK is the radix of the paper's 16-ary 2-cube.
const paperK = 16

// spec describes one workload as a grid of simulation points.
type spec struct {
	name string
	// why is the one-line rationale BENCHMARK.json carries.
	why string
	// pattern renders the traffic spec for a k-ary 2-cube (the hotspot node
	// is the last one, (k-1,k-1), as in Fig. 4).
	pattern   func(k int) string
	switching core.Switching
	algs      []string
	loads     []float64
	// observed attaches every observer hook: telemetry metrics, forensics
	// and the observatory publisher with one draining subscriber.
	observed bool
	// replicas > 0 makes the workload one core.SweepReplicated call over
	// that many consecutive seeds instead of sequential points.
	replicas int
}

func uniform(int) string { return "uniform" }

var tenLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// specs are the four workloads, in BENCHMARK.json order. Each exists
// because one planned change must move it while another must leave it flat
// (see README.md for the full rationale).
var specs = []spec{
	{
		name:      "fig3_uniform",
		why:       "Fig. 3: six algorithms (2 to 17 VCs) x ten loads, wormhole, sequential; the scalar engine does at least 97% of the work",
		pattern:   uniform,
		switching: core.Wormhole,
		algs:      []string{"nbc", "phop", "nhop", "2pn", "ecube", "nlast"},
		loads:     tenLoads,
	},
	{
		name:      "vct_deepbuf",
		why:       "Sec. 3.4: cut-through with message-deep buffers, nbc/2pn/ecube x ten loads; same engine, different blocking and transfer/route mix",
		pattern:   uniform,
		switching: core.CutThrough,
		algs:      []string{"nbc", "2pn", "ecube"},
		loads:     tenLoads,
	},
	{
		name:      "fig4_observed",
		why:       "Fig. 4 hotspot under tree congestion with telemetry, forensics and observatory attached; the only workload where observers do work",
		pattern:   func(k int) string { return fmt.Sprintf("hotspot:0.04:%d", k*k-1) },
		switching: core.Wormhole,
		algs:      []string{"nbc", "2pn", "ecube"},
		loads:     tenLoads,
		observed:  true,
	},
	{
		name:      "replicas_sweep",
		why:       "SweepReplicated, nbc x six loads x 16 seeds on two workers; the only parallel workload and the only one on the batch engine and scheduler",
		pattern:   uniform,
		switching: core.Wormhole,
		algs:      []string{"nbc"},
		loads:     []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
		replicas:  16,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// workers is the parallel workload's width and the process's thread cap:
// the benchmark never keeps more than min(2, nproc) threads busy.
func workers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// unit is one timed call into core: a RunCached point, or the whole
// SweepReplicated call of the parallel workload.
type unit struct {
	// id is the point's Config.Hash()[:12], the identifier its spans share.
	id    string
	label string
	cfg   core.Config
	// loads and seeds are set for the SweepReplicated unit only.
	loads []float64
	seeds []uint64
}

// hooks are the runtime attachments of one round; none of them is part of
// the config hash.
type hooks struct {
	cache   core.ResultCache
	prof    *telemetry.PhaseProfiler
	onTick  func(core.TickEvent)
	workers int
}

// points reports how many Results the unit yields.
func (u unit) points() int {
	if u.seeds == nil {
		return 1
	}
	return len(u.loads) * len(u.seeds)
}

// run executes the unit through the public core entry points and returns
// its Results in (load, seed) order. A deadlocked point is an error here:
// the workloads are chosen so that none deadlocks.
func (u unit) run(h hooks) ([]core.Result, error) {
	c := u.cfg
	c.Cache, c.PhaseProf, c.OnTick = h.cache, h.prof, h.onTick
	if u.seeds == nil {
		r, _, err := core.RunCached(c)
		return []core.Result{r}, err
	}
	rr, err := core.SweepReplicated(c, u.loads, u.seeds, h.workers)
	out := make([]core.Result, 0, u.points())
	for _, r := range rr {
		out = append(out, r.Replicas...)
	}
	return out, err
}

// base is the config every point of the spec shares.
func (sp spec) base(k int, m method, seed uint64) core.Config {
	c := core.Config{
		K: k, N: 2,
		Pattern:      sp.pattern(k),
		Switching:    sp.switching,
		MsgLen:       16,
		Seed:         seed,
		WarmupCycles: m.warmup, SampleCycles: m.sample, GapCycles: m.gap,
		MaxSamples: m.maxSamples,
	}
	if sp.observed {
		c.Telemetry = &telemetry.Options{Metrics: true}
		c.Forensics = &forensics.Options{}
	}
	return c
}

// units expands the spec's grid: algorithms outermost, loads innermost, as
// core.RunFigure walks a figure.
func (sp spec) units(k int, m method, seed uint64) []unit {
	base := sp.base(k, m, seed)
	if sp.replicas > 0 {
		base.Algorithm = sp.algs[0]
		seeds := make([]uint64, sp.replicas)
		for i := range seeds {
			seeds[i] = seed + uint64(i)
		}
		return []unit{{
			id:    base.Hash()[:12],
			label: fmt.Sprintf("%s x%d loads x%d seeds", base.Algorithm, len(sp.loads), len(seeds)),
			cfg:   base, loads: sp.loads, seeds: seeds,
		}}
	}
	us := make([]unit, 0, len(sp.algs)*len(sp.loads))
	for _, alg := range sp.algs {
		for _, load := range sp.loads {
			c := base
			c.Algorithm, c.OfferedLoad = alg, load
			us = append(us, unit{id: c.Hash()[:12], label: fmt.Sprintf("%s@%.1f", alg, load), cfg: c})
		}
	}
	return us
}
