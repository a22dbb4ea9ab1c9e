// Package bench is the benchmark-regression harness behind cmd/bench: it
// runs a fixed suite of engine and end-to-end simulation benchmarks in
// process, records the measurements in a schema-versioned JSON artifact
// (BENCH_<n>.json), and compares a new artifact against a previous one with
// a configurable regression threshold.
package bench

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// Schema identifies the artifact layout; bump it on breaking changes so
// Compare can refuse to diff across layouts.
const Schema = "wormsim-bench/1"

// Measurement is one benchmark's result.
type Measurement struct {
	// Name identifies the spec ("engine/nbc", "point/fig3/nbc/rho=0.6").
	Name string
	// NsPerOp is wall time per operation: one engine cycle for engine specs,
	// one full converged simulation for point specs.
	NsPerOp float64
	// AllocsPerOp and BytesPerOp are the allocator costs per operation.
	AllocsPerOp float64
	BytesPerOp  float64
	// CyclesPerSec is simulated cycles per wall second.
	CyclesPerSec float64
	// FlitHopsPerSec is flit transfers (channel hops) per wall second — the
	// simulator's useful-work rate.
	FlitHopsPerSec float64
	// PhaseShares is the engine phase profile (fraction of engine time per
	// pipeline stage) when the spec runs with a phase profiler attached.
	PhaseShares map[string]float64 `json:",omitempty"`
}

// Artifact is one harness run, serialized as BENCH_<n>.json.
type Artifact struct {
	// Schema is always the package's Schema constant.
	Schema string
	// CreatedAt is an RFC 3339 timestamp, stamped by cmd/bench.
	CreatedAt string `json:",omitempty"`
	// Environment the numbers were taken in.
	GoVersion  string
	GOOS       string
	GOARCH     string
	GOMAXPROCS int
	// NumCPU is the host's logical CPU count — the ceiling on what the
	// sweep/scale specs can demonstrate.
	NumCPU int `json:",omitempty"`
	// Short marks the reduced suite (-short): smaller networks, shorter
	// methodology. Compare refuses to diff short against full artifacts.
	Short      bool
	Benchmarks []Measurement
}

// Spec is one benchmark the suite runs.
type Spec struct {
	Name string
	// Run performs the measurement.
	Run func() Measurement
}

// engineSpec measures raw engine speed: ns per cycle of a k-ary 2-cube
// torus at a light uniform load (the BenchmarkEngine configuration), with a
// phase profiler attached for the per-stage breakdown.
func engineSpec(alg string, k int) Spec {
	name := fmt.Sprintf("engine/%s", alg)
	return Spec{Name: name, Run: func() Measurement {
		pp := telemetry.NewPhaseProfiler()
		var flitsPerCycle float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			g := topology.NewTorus(k, 2)
			a, err := routing.Get(alg)
			if err != nil {
				b.Fatal(err)
			}
			wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.01, 1)
			n, err := network.New(network.Config{
				Grid: g, Algorithm: a, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 1,
				Phases: pp,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.Step(); err != nil {
					b.Fatal(err)
				}
			}
			flitsPerCycle = float64(n.Total().FlitMoves) / float64(b.N)
		})
		m := fromResult(name, r)
		m.CyclesPerSec = perSec(1, m.NsPerOp)
		m.FlitHopsPerSec = perSec(flitsPerCycle, m.NsPerOp)
		m.PhaseShares = shares(pp)
		return m
	}}
}

// pointSpec measures one end-to-end simulation point (the Fig*/ablation
// suite member), timed as a single converged run.
func pointSpec(name string, cfg core.Config) Spec {
	return Spec{Name: name, Run: func() Measurement {
		pp := telemetry.NewPhaseProfiler()
		cfg.PhaseProf = pp
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := core.Run(cfg)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil && !res.Deadlocked {
			panic(fmt.Sprintf("bench %s: %v", name, err))
		}
		ns := float64(elapsed.Nanoseconds())
		var flitMoves int64
		for _, c := range res.ChannelFlits {
			flitMoves += c
		}
		return Measurement{
			Name:           name,
			NsPerOp:        ns,
			AllocsPerOp:    float64(ms1.Mallocs - ms0.Mallocs),
			BytesPerOp:     float64(ms1.TotalAlloc - ms0.TotalAlloc),
			CyclesPerSec:   perSec(float64(res.Cycles), ns),
			FlitHopsPerSec: perSec(float64(flitMoves), ns),
			PhaseShares:    shares(pp),
		}
	}}
}

// forensicsSpec measures the engine cost of congestion forensics at one
// sampling period: ns per cycle of an nbc torus pushed hard enough that
// worms actually block (so the wait-for sampler has real work), with
// sampleEvery 0 meaning no analyzer attached at all — the in-family baseline
// the off : sampled : every comparison reads against. The <5% budget applies
// to forensics/sampled relative to forensics/off.
func forensicsSpec(variant string, k int, sampleEvery int64) Spec {
	name := "forensics/" + variant
	return Spec{Name: name, Run: func() Measurement {
		var flitsPerCycle float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			g := topology.NewTorus(k, 2)
			a, err := routing.Get("nbc")
			if err != nil {
				b.Fatal(err)
			}
			wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, 1)
			cfg := network.Config{
				Grid: g, Algorithm: a, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 1,
			}
			if sampleEvery > 0 {
				cfg.Forensics = forensics.New(forensics.Options{SampleEvery: sampleEvery}, g.ChannelSlots())
			}
			n, err := network.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.Step(); err != nil {
					b.Fatal(err)
				}
			}
			flitsPerCycle = float64(n.Total().FlitMoves) / float64(b.N)
		})
		m := fromResult(name, r)
		m.CyclesPerSec = perSec(1, m.NsPerOp)
		m.FlitHopsPerSec = perSec(flitsPerCycle, m.NsPerOp)
		return m
	}}
}

// sweepScaleSpec measures the work-stealing run scheduler: wall time of one
// fixed multi-load sweep at the given worker count, with GOMAXPROCS pinned
// to four for the duration so the 1-worker and 4-worker entries are
// comparable. The ratio sweep/scale/workers=1 : sweep/scale/workers=4 is
// the scheduler's parallel speedup; on a host with four or more cores it
// should exceed 1.8x (on fewer cores the OS timeshares the workers and the
// ratio degrades toward 1.0 — check the artifact's NumCPU field).
func sweepScaleSpec(short bool, workers int) Spec {
	name := fmt.Sprintf("sweep/scale/workers=%d", workers)
	return Spec{Name: name, Run: func() Measurement {
		prev := runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
		cfg := pointBase(short)
		cfg.Algorithm = "nbc"
		cfg.Pattern = "uniform"
		cfg.Switching = core.Wormhole
		loads := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		results, err := core.SweepN(cfg, loads, workers)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			panic(fmt.Sprintf("bench %s: %v", name, err))
		}
		ns := float64(elapsed.Nanoseconds())
		var cycles int64
		for _, r := range results {
			cycles += r.Cycles
		}
		return Measurement{
			Name:         name,
			NsPerOp:      ns,
			AllocsPerOp:  float64(ms1.Mallocs - ms0.Mallocs),
			BytesPerOp:   float64(ms1.TotalAlloc - ms0.TotalAlloc),
			CyclesPerSec: perSec(float64(cycles), ns),
		}
	}}
}

func fromResult(name string, r testing.BenchmarkResult) Measurement {
	return Measurement{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
}

// perSec converts "units per op" at ns/op into units per wall second.
func perSec(unitsPerOp, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return unitsPerOp * 1e9 / nsPerOp
}

func shares(pp *telemetry.PhaseProfiler) map[string]float64 {
	if pp == nil {
		return nil
	}
	s := pp.Snapshot()
	if s.Total() == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.Phases))
	for _, p := range s.Phases {
		out[p.Phase] = p.Share
	}
	return out
}

// pointBase is the quick methodology shared by point specs (the root
// benchmarks' benchBase), further reduced under -short.
func pointBase(short bool) core.Config {
	cfg := core.Config{
		Seed: 1, WarmupCycles: 2000, SampleCycles: 1000, GapCycles: 300, MaxSamples: 4,
	}
	if short {
		cfg.K = 8
		cfg.WarmupCycles, cfg.SampleCycles, cfg.GapCycles = 500, 300, 100
		cfg.MaxSamples = 2
	}
	return cfg
}

// Specs returns the suite: per-algorithm engine speed plus representative
// points of the paper's figure and ablation experiments.
func Specs(short bool) []Spec {
	k := 16
	if short {
		k = 8
	}
	specs := []Spec{
		engineSpec("ecube", k),
		engineSpec("2pn", k),
		engineSpec("nbc", k),
		engineSpec("phop", k),
	}
	point := func(name, alg, pattern string, sw core.Switching, load float64) {
		cfg := pointBase(short)
		cfg.Algorithm = alg
		cfg.Pattern = pattern
		cfg.Switching = sw
		cfg.OfferedLoad = load
		specs = append(specs, pointSpec(name, cfg))
	}
	point("point/fig3/nbc/rho=0.6", "nbc", "uniform", core.Wormhole, 0.6)
	point("point/fig3/ecube/rho=0.6", "ecube", "uniform", core.Wormhole, 0.6)
	point("point/fig4/nbc/rho=0.3", "nbc", "hotspot", core.Wormhole, 0.3)
	point("point/vct/2pn/rho=0.6", "2pn", "uniform", core.CutThrough, 0.6)
	specs = append(specs,
		forensicsSpec("off", k, 0),
		forensicsSpec("sampled", k, forensics.DefaultSampleEvery),
		forensicsSpec("every", k, 1),
	)
	specs = append(specs, sweepScaleSpec(short, 1), sweepScaleSpec(short, 4))
	return specs
}

// Run executes the suite and assembles the artifact (CreatedAt left to the
// caller). logf, when non-nil, receives one progress line per spec.
func Run(short bool, logf func(format string, args ...any)) Artifact {
	a := Artifact{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Short:      short,
	}
	for _, s := range Specs(short) {
		m := s.Run()
		if logf != nil {
			logf("%-28s %12.0f ns/op %14.0f cycles/s %14.0f flit-hops/s\n",
				m.Name, m.NsPerOp, m.CyclesPerSec, m.FlitHopsPerSec)
		}
		a.Benchmarks = append(a.Benchmarks, m)
	}
	return a
}
