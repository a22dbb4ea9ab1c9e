package network

import (
	"fmt"
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// poolRun executes one traced 8x8 run and returns a fingerprint of
// everything observable: counters, the per-delivery latency sequence, and
// the lifecycle trace.
func poolRun(t *testing.T, pool *message.Pool) string {
	t.Helper()
	g := topology.NewTorus(8, 2)
	alg, err := routing.Get("nbc")
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, 42)
	tel := telemetry.New(telemetry.Options{Trace: true, TraceCap: 1 << 16}, g.ChannelSlots(), alg.NumVCs(g))
	var latencies []int64
	n, err := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 42,
		MsgPool: pool, Telemetry: tel,
		OnDeliver: func(m *message.Message) { latencies = append(latencies, m.Latency()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(2000); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v\n%v\n%s", n.Total(), latencies, telemetry.FormatEvents(tel.Events()))
}

// TestPooledRunsAreBitIdentical: a message pool carried from one run into
// the next must not leak any state through recycled worms — the second run
// is bit-identical to a run on a fresh pool, observed through counters, the
// delivery latency sequence, and the full lifecycle trace.
func TestPooledRunsAreBitIdentical(t *testing.T) {
	fresh := poolRun(t, nil)
	shared := message.NewPool()
	first := poolRun(t, shared)
	if shared.Len() == 0 {
		t.Fatal("first run returned no messages to the shared pool")
	}
	second := poolRun(t, shared)
	if first != fresh {
		t.Error("run on an empty shared pool diverged from a private-pool run")
	}
	if second != fresh {
		t.Error("run on a recycled pool diverged from a private-pool run")
	}
	if _, reuses := shared.Stats(); reuses == 0 {
		t.Error("second run reused nothing from the pool")
	}
}

// TestSteadyStateZeroAlloc: once warmed up, the engine cycle allocates
// nothing for any routing algorithm — the pool, scratch buffers, and
// struct-of-arrays layout absorb all steady-state work — with or without a
// metrics collector attached.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, withTelemetry := range []bool{false, true} {
		for _, algName := range []string{"ecube", "nlast", "2pn", "phop", "nhop", "nbc"} {
			g := topology.NewTorus(8, 2)
			alg, err := routing.Get(algName)
			if err != nil {
				t.Fatal(err)
			}
			var tel *telemetry.Collector
			if withTelemetry {
				tel = telemetry.New(telemetry.Options{Metrics: true}, g.ChannelSlots(), alg.NumVCs(g))
			}
			wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, 7)
			n, err := New(Config{
				Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 7,
				Telemetry: tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up past the transient so pools and scratch reach steady size.
			if err := n.Run(3000); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(2000, func() {
				if err := n.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s (telemetry=%t): %.3f allocs per steady-state cycle, want 0", algName, withTelemetry, avg)
			}
		}
	}
}
