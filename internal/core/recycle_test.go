package core

import (
	"reflect"
	"runtime"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/network"
	"wormsim/internal/telemetry"
)

// TestRunOnRecycledEngineMatchesRun: Run is a function of its config, not of
// the engine it is handed. One engine is driven through points that change
// the grid, the virtual-channel count, the buffer depth, the switching
// technique and the observers — a saturated one first, so every later point
// starts on an engine abandoned full of worms — and each Result equals Run's.
func TestRunOnRecycledEngineMatchesRun(t *testing.T) {
	with := func(alg string, edit func(*Config)) Config {
		c := quick(alg)
		edit(&c)
		return c
	}
	eng := new(network.Network)
	for i, cfg := range []Config{
		with("nbc", func(c *Config) { c.OfferedLoad = 0.9 }),
		quick("ecube"),
		with("nlast", func(c *Config) { c.Switching = CutThrough }),
		with("phop", func(c *Config) { c.Switching = StoreFwd; c.OfferedLoad = 0.1 }),
		with("nbc", func(c *Config) {
			c.Telemetry = &telemetry.Options{Trace: true, TraceCap: 1 << 12}
			c.Forensics = &forensics.Options{SampleEvery: 16}
		}),
		with("ecube", func(c *Config) { c.Mesh = true; c.K = 6; c.BufDepth = 1 }),
		with("phop", func(c *Config) { c.K, c.N = 4, 3; c.RouteDelay = 2; c.InjectionPorts = 1 }),
		quick("nbc"),
	} {
		got, err := runOn(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("point %d (%s) on the recycled engine diverges from Run\n got: %+v\nwant: %+v", i, cfg.Algorithm, got, want)
		}
	}
}

// TestRecycledPointAllocBound keeps the benchmark's alloc_mb from creeping
// back: on a recycled engine a 16x16 nbc point allocates the workload, the
// estimators and its Result — about 20 KB, bounded at 100 KB — where a fresh engine adds about
// 0.9 MB of per-VC arrays, bitsets and channel tables.
func TestRecycledPointAllocBound(t *testing.T) {
	cfg := Config{
		K: 16, N: 2, Algorithm: "nbc", OfferedLoad: 0.3,
		WarmupCycles: 300, SampleCycles: 300, GapCycles: 100, MaxSamples: 2,
	}
	point := func(eng *network.Network, seed uint64) uint64 {
		c := cfg
		c.Seed = seed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runOn(eng, c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	eng := new(network.Network)
	fresh := point(eng, 1)
	if fresh < 800<<10 {
		t.Fatalf("fresh point allocated only %d bytes; the bound below would prove nothing", fresh)
	}
	for seed := uint64(2); seed <= 4; seed++ {
		if got := point(eng, seed); got > 100<<10 {
			t.Errorf("point %d on the recycled engine allocated %d bytes, want under %d (fresh: %d)", seed, got, 100<<10, fresh)
		}
	}
}
