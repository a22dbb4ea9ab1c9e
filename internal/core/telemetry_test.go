package core

import (
	"slices"
	"sync/atomic"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// quickTelCfg is a small fast configuration with telemetry on.
func quickTelCfg() Config {
	return Config{
		K: 8, N: 2, Algorithm: "nbc", Pattern: "uniform", OfferedLoad: 0.5,
		Seed: 3, WarmupCycles: 500, SampleCycles: 500, GapCycles: 100, MaxSamples: 3,
		Telemetry: &telemetry.Options{Metrics: true, Trace: true},
	}
}

func TestRunFillsTelemetry(t *testing.T) {
	var samples int32
	cfg := quickTelCfg()
	cfg.OnSample = func(ev SampleEvent) {
		atomic.AddInt32(&samples, 1)
		if ev.Sample <= 0 || ev.MaxSamples != cfg.MaxSamples || ev.Mean <= 0 {
			t.Errorf("bad sample event %+v", ev)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry not filled")
	}
	if got, want := int(atomic.LoadInt32(&samples)), res.Samples; got != want {
		t.Errorf("OnSample called %d times, %d samples taken", got, want)
	}
	s := res.Telemetry
	if s.Cycles == 0 || len(s.ChannelBusy) == 0 {
		t.Errorf("empty summary %+v", s)
	}
	if len(res.TraceEvents) == 0 {
		t.Error("no trace events retained")
	}
	if s.TotalHeadBlocked() == 0 {
		t.Error("no head-blocked cycles at 0.5 offered load")
	}
	// The summary's busy counts are the engine's channel flit counts.
	for ch, b := range s.ChannelBusy {
		if b != res.ChannelFlits[ch] {
			t.Fatalf("channel %d: telemetry busy %d != ChannelFlits %d", ch, b, res.ChannelFlits[ch])
		}
	}
}

// TestHotspotSaturatesHotChannels is the acceptance scenario: under hotspot
// traffic the channels into the hot node must top the utilization ranking.
func TestHotspotSaturatesHotChannels(t *testing.T) {
	cfg := quickTelCfg()
	hot := 27 // node (3,3) on the 8x8 torus
	cfg.Pattern = "hotspot:0.2:27"
	cfg.OfferedLoad = 0.6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Grid()
	top := res.Telemetry.BusiestChannels(4)
	into := 0
	for _, ch := range top {
		up, dim, dir := g.ChannelInfo(ch)
		if g.Neighbor(up, dim, dir) == hot {
			into++
		}
	}
	if into < 3 {
		t.Errorf("only %d of the top-4 busiest channels feed the hot node %d (top: %v)", into, hot, top)
	}
}

// TestSafIgnoresTelemetry: the saf engine has no flit channels; a telemetry
// request must not break it.
func TestSafIgnoresTelemetry(t *testing.T) {
	cfg := quickTelCfg()
	cfg.Algorithm = "phop"
	cfg.Switching = StoreFwd
	cfg.OfferedLoad = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Error("saf run filled Telemetry")
	}
}

// TestTicksCountParkedHeaders: a blocked header is parked and charged its
// blocked cycles when it is woken, so whoever reads the counters mid-run has
// to settle the parked ones first. Ticks of a saturated hot-spot run sampled
// by forensics every 64 cycles must carry, tick for tick, the head-blocked
// counts of the same run sampled every cycle — which wakes every header every
// cycle and so counts them one at a time — and the closing tick must agree
// with Result.Telemetry.
func TestTicksCountParkedHeaders(t *testing.T) {
	run := func(every int64) (ticks []int64, res Result) {
		cfg := quickTelCfg()
		cfg.Pattern, cfg.OfferedLoad = "hotspot:0.2:27", 0.8
		cfg.Telemetry = &telemetry.Options{Metrics: true}
		cfg.Forensics = &forensics.Options{SampleEvery: every}
		cfg.TickCycles = 37
		cfg.OnTick = func(ev TickEvent) { ticks = append(ticks, ev.Telemetry.TotalHeadBlocked()) }
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ticks, res
	}
	eager, _ := run(1)
	lazy, res := run(64)
	if len(lazy) < 10 || lazy[len(lazy)-1] == 0 {
		t.Fatalf("%d ticks, the last counting %d head-blocked cycles: the run exercises nothing", len(lazy), lazy[len(lazy)-1])
	}
	for i := range lazy {
		if i > 0 && lazy[i] < lazy[i-1] {
			t.Fatalf("tick %d counts %d head-blocked cycles, the one before %d", i, lazy[i], lazy[i-1])
		}
	}
	if !slices.Equal(lazy, eager) {
		t.Errorf("head-blocked counts per tick differ between forensics sampling every 64 cycles and every cycle:\n got  %v\n want %v", lazy, eager)
	}
	if got, want := lazy[len(lazy)-1], res.Telemetry.TotalHeadBlocked(); got != want {
		t.Errorf("closing tick counts %d head-blocked cycles, Result.Telemetry %d", got, want)
	}
}
