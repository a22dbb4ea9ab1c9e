package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// mapCache is a minimal in-memory ResultCache for exercising the per-seed
// cache consult without a disk store.
type mapCache struct {
	mu sync.Mutex
	m  map[string]Result
}

func newMapCache() *mapCache { return &mapCache{m: map[string]Result{}} }

func (c *mapCache) Lookup(hash string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[hash]
	return r, ok
}

func (c *mapCache) Store(hash string, _ Config, r Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[hash] = r
	return nil
}

// replicas runs cfg at its own offered load once per seed through
// SweepReplicated on two workers and returns the replicas in seed order.
func replicas(t *testing.T, cfg Config, seeds []uint64) []Result {
	t.Helper()
	reps, err := SweepReplicated(cfg, []float64{cfg.OfferedLoad}, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	return reps[0].Replicas
}

// TestSweepReplicatedMatchesRun pins the replica contract: every replica's
// Result is equal — field for field — to a Run of the same config and seed,
// across switching techniques and algorithms.
func TestSweepReplicatedMatchesRun(t *testing.T) {
	seeds := []uint64{5, 19, 77}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"phop", quick("phop")},
		{"nbc", quick("nbc")},
		{"ecube-mesh", func() Config {
			c := quick("ecube")
			c.Mesh = true
			return c
		}()},
		{"nlast-vct", func() Config {
			c := quick("nlast")
			c.Switching = CutThrough
			return c
		}()},
		{"phop-low-load", func() Config {
			c := quick("phop")
			c.OfferedLoad = 0.1
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := replicas(t, tc.cfg, seeds)
			if len(got) != len(seeds) {
				t.Fatalf("got %d results for %d seeds", len(got), len(seeds))
			}
			for i, seed := range seeds {
				c := tc.cfg
				c.Seed = seed
				want, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("seed %d: replica result diverges from Run\n got: %+v\nwant: %+v", seed, got[i], want)
				}
			}
		})
	}
}

// TestSweepReplicatedObserverInstruments: telemetry and forensics attach to
// every replica, and each replica, summaries and trace included, matches an
// instrumented Run at its seed.
func TestSweepReplicatedObserverInstruments(t *testing.T) {
	cfg := quick("nbc")
	cfg.Telemetry = &telemetry.Options{Trace: true, TraceCap: 1 << 14}
	cfg.Forensics = &forensics.Options{SampleEvery: 16}
	seeds := []uint64{5, 19}
	got := replicas(t, cfg, seeds)

	for i, seed := range seeds {
		obs := cfg
		obs.Seed = seed
		want, err := Run(obs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("seed %d: replica diverges from instrumented Run\n got: %+v\nwant: %+v", seed, got[i], want)
		}
		if got[i].Telemetry == nil || got[i].Forensics == nil || len(got[i].TraceEvents) == 0 {
			t.Errorf("seed %d: replica missing instrument output", seed)
		}
	}
}

// TestSweepReplicatedCache: the per-seed cache consult serves hits without
// engine work, fills misses, and mixes freely with RunCached entries (same
// hashes, same stored bits).
func TestSweepReplicatedCache(t *testing.T) {
	cfg := quick("phop")
	cfg.Cache = newMapCache()
	seeds := []uint64{5, 19, 77}

	// Pre-populate one seed through RunCached.
	pre := cfg
	pre.Seed = seeds[1]
	preRes, hit, err := RunCached(pre)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("empty cache reported a hit")
	}

	first := replicas(t, cfg, seeds)
	if !reflect.DeepEqual(first[1], preRes) {
		t.Error("cache hit differs from stored RunCached result")
	}

	// Every seed is now stored; a second call must be all hits, and
	// RunCached must hit the entries the replicas stored.
	mc := cfg.Cache.(*mapCache)
	stored := len(mc.m)
	if stored != len(seeds) {
		t.Fatalf("cache holds %d entries, want %d", stored, len(seeds))
	}
	second := replicas(t, cfg, seeds)
	if !reflect.DeepEqual(first, second) {
		t.Error("cached replay differs from first run")
	}
	sc := cfg
	sc.Seed = seeds[2]
	r2, hit, err := RunCached(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("RunCached missed an entry a replica stored")
	}
	if !reflect.DeepEqual(r2, first[2]) {
		t.Error("RunCached hit differs from the replica's result")
	}
}

// TestSweepReplicatedEmptyAndSingle: degenerate widths work — zero seeds is
// an error, one seed matches Run exactly.
func TestSweepReplicatedEmptyAndSingle(t *testing.T) {
	if _, err := SweepReplicated(quick("ecube"), []float64{0.3}, nil, 2); err == nil {
		t.Fatal("zero seeds: no error")
	}
	cfg := quick("ecube")
	got := replicas(t, cfg, []uint64{cfg.Seed})
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("single replica diverges from Run\n got: %+v\nwant: %+v", got[0], want)
	}
}

// TestReplicaSeedsNeverShareStreams: every seed an engine takes across the
// replicas of one point — each replica's initial seed and its reseed before
// every later sample — is distinct, so replicas never replay each other's
// arrival streams.
func TestReplicaSeedsNeverShareStreams(t *testing.T) {
	const replicas, samples = 64, 16
	for _, base := range []uint64{1, 0x5eed, 1 << 63, ^uint64(0) - 3} {
		seen := map[uint64]string{}
		use := func(seed uint64, who string) {
			if prev, ok := seen[seed]; ok {
				t.Fatalf("base %#x: %s reuses seed %#x of %s", base, who, seed, prev)
			}
			seen[seed] = who
		}
		for r, seed := range ReplicaSeeds(base, replicas) {
			use(seed, fmt.Sprintf("replica %d's initial seed", r))
			for k := 1; k < samples; k++ {
				use(sampleSeed(seed, k), fmt.Sprintf("replica %d's sample-%d reseed", r, k))
			}
		}
	}
}
