package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// tickStateDigest is the SHA-256 of every tick's loaded state in
// TestRunEmitsTicks's run, as the ticks carried it when each one was a full
// copy: lazy loading must hand a hook that loads exactly the same bytes.
const tickStateDigest = "35173f98920eb3e2f277893bc95579a6e2d16f534d2337429f6f52f67cdcec0a"

func TestRunEmitsTicks(t *testing.T) {
	cfg := quickTelCfg()
	cfg.TickCycles = 100
	var ticks []TickEvent
	var unloaded TickEvent // the first tick, as it arrived
	h := sha256.New()
	cfg.OnTick = func(ev TickEvent) {
		if ev.Loaded() != ev.Final {
			t.Errorf("tick at cycle %d (final %t) arrived with loaded %t", ev.Cycle, ev.Final, ev.Loaded())
		}
		if len(ticks) == 0 {
			unloaded = ev
		}
		ev.Load()
		fmt.Fprintf(h, "%d %d %t %+v %v %v\n", ev.Cycle, ev.InFlight, ev.Final, ev.Counters, ev.Worms, ev.ChannelFlits)
		fmt.Fprintf(h, "%+v %+v %v\n", *ev.Telemetry, ev.Forensics, ev.Events)
		ticks = append(ticks, ev)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) < 2 {
		t.Fatalf("only %d ticks for a %d-cycle run", len(ticks), res.Cycles)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != tickStateDigest {
		t.Errorf("loaded tick state digest %s, want %s", got, tickStateDigest)
	}
	last := ticks[len(ticks)-1]
	if !last.Final {
		t.Error("closing tick not marked Final")
	}
	for i, ev := range ticks {
		if ev.Algorithm != cfg.Algorithm || ev.K != cfg.K || ev.OfferedLoad != cfg.OfferedLoad {
			t.Fatalf("tick %d lost run identity: %+v", i, ev)
		}
		if i > 0 && ev.Cycle < ticks[i-1].Cycle {
			t.Fatalf("tick cycles went backwards: %d then %d", ticks[i-1].Cycle, ev.Cycle)
		}
		if ev.Telemetry == nil {
			t.Fatalf("tick %d missing telemetry summary", i)
		}
		if len(ev.ChannelFlits) == 0 {
			t.Fatalf("tick %d missing channel flits", i)
		}
	}
	// Load works only during the OnTick call: a kept event stays as it was.
	if unloaded.Load(); unloaded.Loaded() {
		t.Error("Load after the OnTick call returned filled the event")
	}
	// The final tick's totals must agree with the result's accounting.
	if last.Counters.Delivered != res.Delivered {
		t.Errorf("final tick delivered %d, result says %d", last.Counters.Delivered, res.Delivered)
	}
	// Fresh-event streaming: ticks never replay events (each event is
	// recorded once, so the concatenation is at most everything recorded).
	total := 0
	for _, ev := range ticks {
		total += len(ev.Events)
	}
	if rec := int(res.Telemetry.TraceEvicted) + res.Telemetry.TraceEvents; total > rec {
		t.Errorf("ticks carried %d events, only %d were recorded", total, rec)
	}
}

// TestUnloadedTicksAllocLittle is the tick path's allocation gate: a hook
// that never calls Load costs an observed run at most 2 KB per tick over the
// same run with no hook — the counters and the blame head, not the worm
// states, channel counts and observer summaries a tick used to copy (about
// 64 KB a tick at this saturated hot spot). The final tick, always loaded,
// is a one-off spread over 145 ticks.
func TestUnloadedTicksAllocLittle(t *testing.T) {
	cfg := Config{
		K: 8, N: 2, Algorithm: "nbc", Pattern: "hotspot:0.2:27", OfferedLoad: 0.6, Seed: 9,
		WarmupCycles: 4000, SampleCycles: 1000, GapCycles: 100, MinSamples: 3, MaxSamples: 3,
		Telemetry:  &telemetry.Options{Metrics: true},
		Forensics:  &forensics.Options{},
		TickCycles: 50,
	}
	alloc := func(hook func(TickEvent)) uint64 {
		c := cfg
		c.OnTick = hook
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(nil) // leaves a warm engine, collector and analyzer in the pool
	bare := alloc(nil)
	ticks := 0
	hooked := alloc(func(TickEvent) { ticks++ })
	if ticks < 100 {
		t.Fatalf("only %d ticks: the gate would prove nothing", ticks)
	}
	if extra := int64(hooked) - int64(bare); extra > int64(ticks)*2048 {
		t.Errorf("%d unloaded ticks allocated %d bytes over the bare run (%d per tick), want at most 2048 per tick",
			ticks, extra, extra/int64(ticks))
	}
}

// TestObserversDoNotPerturb pins the determinism contract for the two new
// hooks: attaching OnTick and a phase profiler must leave the Result
// bit-identical to a bare run.
func TestObserversDoNotPerturb(t *testing.T) {
	cfg := quickTelCfg()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := cfg
	obs.TickCycles = 50
	obs.OnTick = func(TickEvent) {}
	obs.PhaseProf = telemetry.NewPhaseProfiler()
	got, err := Run(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("observed run diverged from bare run:\nbase %+v\ngot  %+v", base, got)
	}
	if s := obs.PhaseProf.Snapshot(); s.Cycles == 0 || s.Total() == 0 {
		t.Errorf("phase profiler saw nothing: %+v", s)
	}
}
