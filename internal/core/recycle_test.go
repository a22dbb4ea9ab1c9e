package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/network"
	"wormsim/internal/telemetry"
)

// recycleConfigs are points that change the grid, the virtual-channel
// count, the buffer depth, the switching technique and the observers — a
// saturated one first, so every later point starts on an engine abandoned
// full of worms.
func recycleConfigs() []Config {
	with := func(alg string, edit func(*Config)) Config {
		c := quick(alg)
		edit(&c)
		return c
	}
	return []Config{
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
	}
}

// freshRun is the reference every recycled run must equal: the point on an
// engine nothing ran on before.
func freshRun(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := runOn(new(network.Network), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunOnRecycledEngineMatchesRun: a run is a function of its config, not
// of the engine it is handed. One engine is driven through recycleConfigs,
// and each Result equals the same point on a fresh engine.
func TestRunOnRecycledEngineMatchesRun(t *testing.T) {
	eng := new(network.Network)
	for i, cfg := range recycleConfigs() {
		got, err := runOn(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshRun(t, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("point %d (%s) on the recycled engine diverges from a fresh one\n got: %+v\nwant: %+v", i, cfg.Algorithm, got, want)
		}
	}
}

// TestConcurrentRunsShareNothing: four goroutines Run recycleConfigs in
// different orders, drawing engines from one pool. Every Result equals the
// point on a fresh engine, and still encodes — and compares — the same after
// its goroutine has run three more points, so no Result aliases the memory
// of an engine that went back to the pool. CI runs this under -race.
func TestConcurrentRunsShareNothing(t *testing.T) {
	cfgs := recycleConfigs()
	n := len(cfgs)
	want := make([]Result, n)
	for i, cfg := range cfgs {
		want[i] = freshRun(t, cfg)
	}
	type returned struct {
		i   int
		r   Result
		enc []byte
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done []returned
			// An odd stride is coprime with n = 8: every index comes up once.
			for k := 0; k < n+3; k++ {
				i := (3*g + k*(2*g+1)) % n
				r, err := Run(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if k < n {
					if !reflect.DeepEqual(r, want[i]) {
						t.Errorf("goroutine %d, point %d (%s) diverges from a fresh engine", g, i, cfgs[i].Algorithm)
					}
					enc, err := json.Marshal(r)
					if err != nil {
						t.Error(err)
						return
					}
					done = append(done, returned{i, r, enc})
				}
				if k >= 3 {
					old := done[k-3]
					enc, _ := json.Marshal(old.r)
					if !bytes.Equal(enc, old.enc) || !reflect.DeepEqual(old.r, want[old.i]) {
						t.Errorf("goroutine %d, point %d (%s) changed after three more runs", g, old.i, cfgs[old.i].Algorithm)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecycledPointAllocBound keeps the benchmark's alloc_mb from creeping
// back: on a recycled engine a 16x16 nbc point allocates the workload, the
// estimators and its Result — about 20 KB, bounded at 100 KB — where a fresh
// engine adds about 0.9 MB of per-VC arrays, bitsets and channel tables. Run
// and RunCached, after one warm point, recycle as well as runOn does.
func TestRecycledPointAllocBound(t *testing.T) {
	cfg := Config{
		K: 16, N: 2, Algorithm: "nbc", OfferedLoad: 0.3,
		WarmupCycles: 300, SampleCycles: 300, GapCycles: 100, MaxSamples: 2,
	}
	point := func(run func(Config) error, seed uint64) uint64 {
		c := cfg
		c.Seed = seed
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	eng := new(network.Network)
	onEng := func(c Config) error { _, err := runOn(eng, c); return err }
	fresh := point(onEng, 1)
	if fresh < 800<<10 {
		t.Fatalf("fresh point allocated only %d bytes; the bound below would prove nothing", fresh)
	}
	bound := func(t *testing.T, run func(Config) error) {
		for seed := uint64(2); seed <= 4; seed++ {
			if got := point(run, seed); got > 100<<10 {
				t.Errorf("point %d on a recycled engine allocated %d bytes, want under %d (fresh: %d)", seed, got, 100<<10, fresh)
			}
		}
	}
	t.Run("runOn", func(t *testing.T) { bound(t, onEng) })
	for _, tc := range []struct {
		name string
		run  func(Config) error
	}{
		{"Run", func(c Config) error { _, err := Run(c); return err }},
		{"RunCached", func(c Config) error { _, _, err := RunCached(c); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled() {
				t.Skip("the race detector makes sync.Pool drop a random quarter of what it is given")
			}
			// Pools are per processor, and Get never takes another
			// processor's private engine: on one processor the warm
			// point's engine is the one every later call gets back.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			point(tc.run, 1)
			bound(t, tc.run)
		})
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
