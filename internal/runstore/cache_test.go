package runstore

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"wormsim/internal/core"
	"wormsim/internal/telemetry"
)

// sweep runs cfg over loads as a one-algorithm core.RunFigure and returns
// the results in load order.
func sweep(cfg core.Config, loads []float64, onDone func(int, core.Result)) ([]core.Result, error) {
	spec := core.FigureSpec{ID: "sweep", Pattern: cfg.Pattern, Switching: cfg.Switching,
		Algorithms: []string{cfg.Algorithm}, Loads: loads}
	fr, err := core.RunFigure(spec, cfg, onDone)
	return fr.Series[0].Results, err
}

// TestSweepWarmStoreBitIdentical is the admission-control acceptance test:
// re-running an identical sweep against a warm store must perform zero
// engine cycles for cached points (proven by an OnTick canary — the engine
// publishes ticks only while it steps) and return Results bit-identical to
// the fresh simulation, field-for-field and byte-for-byte.
func TestSweepWarmStoreBitIdentical(t *testing.T) {
	cfg := core.Config{
		K: 4, N: 2, Algorithm: "nbc", Pattern: "uniform", Seed: 11,
		WarmupCycles: 300, SampleCycles: 150, GapCycles: 50,
		MinSamples: 2, MaxSamples: 3,
	}
	loads := []float64{0.2, 0.4, 0.6}

	// Reference: no store attached.
	bare, err := sweep(cfg, loads, nil)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Cold pass: every point is a miss, simulated and recorded.
	cold := cfg
	cold.Cache = s
	coldRes, err := sweep(cold, loads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, coldRes) {
		t.Error("cold-store sweep diverged from bare sweep")
	}
	if s.Hits() != 0 || s.Misses() != int64(len(loads)) {
		t.Errorf("cold pass: hits=%d misses=%d, want 0/%d", s.Hits(), s.Misses(), len(loads))
	}
	if s.Len() != len(loads) {
		t.Errorf("store holds %d records after cold pass, want %d", s.Len(), len(loads))
	}

	// Warm pass: every point must come from the store with zero engine
	// cycles. The tick canary counts engine publications; a cache hit never
	// steps the engine, so it must stay at zero.
	var ticks atomic.Int64
	warm := cfg
	warm.Cache = s
	warm.TickCycles = 1
	warm.OnTick = func(core.TickEvent) { ticks.Add(1) }
	warmRes, err := sweep(warm, loads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ticks.Load(); got != 0 {
		t.Errorf("warm sweep stepped the engine: %d ticks published, want 0", got)
	}
	if s.Hits() != int64(len(loads)) {
		t.Errorf("warm pass: hits=%d, want %d", s.Hits(), len(loads))
	}
	if !reflect.DeepEqual(bare, warmRes) {
		t.Errorf("warm-store sweep diverged from bare sweep:\nbare %+v\nwarm %+v", bare, warmRes)
	}
	bj, _ := json.Marshal(bare)
	wj, _ := json.Marshal(warmRes)
	if !bytes.Equal(bj, wj) {
		t.Error("warm-store sweep JSON not byte-identical to bare sweep")
	}
}

// TestSweepWarmStoreAcrossReopen: the warm-store guarantee survives
// persistence — a new process (fresh Open) serves the same bytes.
func TestSweepWarmStoreAcrossReopen(t *testing.T) {
	cfg := core.Config{
		K: 4, N: 2, Algorithm: "ecube", Pattern: "transpose", Seed: 5,
		WarmupCycles: 200, SampleCycles: 100, GapCycles: 50,
		MinSamples: 2, MaxSamples: 2,
	}
	loads := []float64{0.3, 0.5}
	dir := t.TempDir()

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := cfg
	cold.Cache = s
	first, err := sweep(cold, loads, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm := cfg
	warm.Cache = s2
	second, err := sweep(warm, loads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Misses() != 0 || s2.Hits() != int64(len(loads)) {
		t.Errorf("reopened store: hits=%d misses=%d, want %d/0", s2.Hits(), s2.Misses(), len(loads))
	}
	fj, _ := json.Marshal(first)
	sj, _ := json.Marshal(second)
	if !bytes.Equal(fj, sj) {
		t.Error("results not byte-identical across store reopen")
	}
}

// TestRunCachedTraceBypassesStore: configs retaining a lifecycle trace run
// fresh every time — TraceEvents are not persisted, so serving them from
// the store would silently drop data.
func TestRunCachedTraceBypassesStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := core.Config{
		K: 4, N: 2, Algorithm: "nbc", Pattern: "uniform", Seed: 3,
		OfferedLoad:  0.3,
		WarmupCycles: 200, SampleCycles: 100, GapCycles: 50,
		MinSamples: 2, MaxSamples: 2,
		Cache: s,
	}
	cfg.Telemetry = &telemetry.Options{Metrics: true, Trace: true, TraceCap: 64}
	for i := 0; i < 2; i++ {
		r, hit, err := core.RunCached(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("trace-collecting run served from the store")
		}
		if len(r.TraceEvents) == 0 {
			t.Fatal("trace run returned no events")
		}
	}
	if s.Len() != 0 {
		t.Errorf("trace run leaked %d records into the store", s.Len())
	}
}

// TestSweepReplicatedUsesStore: the load×seed grid consults the cache too.
func TestSweepReplicatedUsesStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := core.Config{
		K: 4, N: 2, Algorithm: "nbc", Pattern: "uniform",
		WarmupCycles: 200, SampleCycles: 100, GapCycles: 50,
		MinSamples: 2, MaxSamples: 2,
		Cache: s,
	}
	loads := []float64{0.2, 0.4}
	seeds := []uint64{1, 2, 3}
	first, err := core.SweepReplicated(cfg, loads, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(loads)*len(seeds) {
		t.Fatalf("store holds %d records, want %d", s.Len(), len(loads)*len(seeds))
	}
	missesAfterCold := s.Misses()
	second, err := core.SweepReplicated(cfg, loads, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Misses() != missesAfterCold {
		t.Errorf("warm replicated sweep missed the cache %d times", s.Misses()-missesAfterCold)
	}
	fj, _ := json.Marshal(first)
	sj, _ := json.Marshal(second)
	if !bytes.Equal(fj, sj) {
		t.Error("replicated sweep not byte-identical against warm store")
	}
}
