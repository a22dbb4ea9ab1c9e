package core

import (
	"fmt"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// malformedConfigs are configurations Run must answer with an error; each
// used to panic inside it. They are also FuzzConfig's seeds.
var malformedConfigs = []Config{
	{K: 1},
	{Switching: "saf"}, // not a technique the engine implements
	{N: -1},
	{MsgLen: -4},
	{OfferedLoad: -0.5},
	{InjectionRate: -0.1},
	{Pattern: "hotspot:0.1:999"},
	{Pattern: "hotspot:2"},
	{Pattern: "local:-1"},
	{K: 4, Mesh: true, Pattern: "tornado"},
	{K: 3, Pattern: "bitrev"},
	{K: 6, Pattern: "shuffle"},
}

func TestRunRejectsMalformedConfig(t *testing.T) {
	for _, c := range malformedConfigs {
		if _, err := Run(c); err == nil {
			t.Errorf("Run(%+v) returned no error", c)
		}
	}
}

// FuzzConfig runs core.Run on configurations from anywhere in the input
// space — radix 0–6 and dimension 0–3 (0 is the paper's default), any
// algorithm, pattern spec and switching name, and small signed message
// lengths, buffer depths, port budgets and router delays — under a tiny
// methodology budget, with or without the observers: telemetry metrics and
// trace with any TraceCap, forensics with any SampleEvery (0 and negative
// included), and an OnTick hook at any TickCycles (≤ 0 included). The hook
// loads some ticks, keeps every event and calls Load again on the kept
// ones — during a later tick and after Run returns — which must do nothing.
// Every run must come back as a Result or an error, never a panic.
func FuzzConfig(f *testing.F) {
	for _, c := range malformedConfigs {
		f.Add(int8(c.K), int8(c.N), c.Mesh, c.Algorithm, c.Pattern, string(c.Switching),
			int8(c.MsgLen), int8(c.BufDepth), int8(c.InjectionPorts), int8(c.RouteDelay), c.OfferedLoad, c.InjectionRate,
			uint8(0), int16(0), int8(0), int16(0), uint8(0))
	}
	f.Add(int8(4), int8(2), false, "nbc", "uniform", "wormhole", int8(8), int8(2), int8(1), int8(1), 0.6, 0.0,
		uint8(0), int16(0), int8(0), int16(0), uint8(0))
	f.Add(int8(5), int8(1), true, "phop", "local:1", "wormhole", int8(4), int8(0), int8(0), int8(0), 0.3, 0.0,
		uint8(31), int16(16), int8(1), int16(20), uint8(1))
	// Observed: metrics, a tiny trace ring, every-cycle forensics and a tick
	// every 7 cycles, every other one loaded; then negative sampling and
	// tick periods, which fall back to the defaults.
	f.Add(int8(4), int8(2), false, "nbc", "hotspot:0.3:5", "wormhole", int8(8), int8(2), int8(1), int8(0), 0.8, 0.0,
		uint8(31), int16(8), int8(1), int16(7), uint8(1))
	f.Add(int8(4), int8(2), true, "2pn", "uniform", "vct", int8(4), int8(0), int8(0), int8(1), 0.5, 0.0,
		uint8(29), int16(-3), int8(-5), int16(-1), uint8(0))
	f.Fuzz(func(t *testing.T, k, n int8, mesh bool, alg, pattern, switching string,
		msgLen, bufDepth, ports, routeDelay int8, load, rate float64,
		observers uint8, traceCap int16, foreEvery int8, tick int16, loadEvery uint8) {
		cfg := Config{
			K: int(k) % 7, N: int(n) % 4, Mesh: mesh,
			Algorithm: alg, Pattern: pattern, Switching: Switching(switching),
			MsgLen: int(msgLen), BufDepth: int(bufDepth), InjectionPorts: int(ports), RouteDelay: int(routeDelay),
			OfferedLoad: load, InjectionRate: rate,
			WarmupCycles: 40, SampleCycles: 40, GapCycles: 10, MinSamples: 1, MaxSamples: 2,
		}
		// observers: telemetry | metrics<<1 | trace<<2 | forensics<<3 | OnTick<<4.
		if observers&1 != 0 {
			cfg.Telemetry = &telemetry.Options{Metrics: observers&2 != 0, Trace: observers&4 != 0, TraceCap: int(traceCap)}
		}
		if observers&8 != 0 {
			cfg.Forensics = &forensics.Options{SampleEvery: int64(foreEvery)}
		}
		var kept []TickEvent
		if observers&16 != 0 {
			cfg.TickCycles = int64(tick)
			cfg.OnTick = func(ev TickEvent) {
				if len(kept)%(int(loadEvery)+1) == 0 {
					ev.Load()
					if !ev.Loaded() {
						t.Errorf("tick at cycle %d did not load during its OnTick call", ev.Cycle)
					}
				}
				if len(kept) > 0 {
					lateLoad(t, kept[len(kept)-1])
				}
				kept = append(kept, ev)
			}
		}
		Run(cfg) //nolint:errcheck // an error is a valid answer; only a panic fails
		for _, ev := range kept {
			lateLoad(t, ev)
		}
	})
}

// lateLoad calls Load on an event whose OnTick call has returned and fails
// t if that changed it.
func lateLoad(t *testing.T, ev TickEvent) {
	t.Helper()
	before := fmt.Sprintf("%+v", ev)
	ev.Load()
	if after := fmt.Sprintf("%+v", ev); after != before {
		t.Errorf("Load after the OnTick call changed the event at cycle %d", ev.Cycle)
	}
}
