package network

import (
	"fmt"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// poolRun re-initialises n for one traced 8x8 run and returns a fingerprint
// of everything observable: counters, the per-delivery latency sequence, and
// the lifecycle trace.
func poolRun(t *testing.T, n *Network) string {
	t.Helper()
	g := topology.NewTorus(8, 2)
	alg, err := routing.Get("nbc")
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, 42)
	var latencies []int64
	err = n.Reset(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 42,
		Telemetry: &telemetry.Options{Trace: true, TraceCap: 1 << 16},
		OnDeliver: func(m *message.Message) { latencies = append(latencies, m.Latency()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(2000); err != nil {
		t.Fatal(err)
	}
	events, _ := n.Trace(0, 0)
	return fmt.Sprintf("%+v\n%v\n%s", n.Total(), latencies, telemetry.FormatEvents(events))
}

// TestPooledRunsAreBitIdentical: the message pool an engine carries from one
// run into the next through Reset must not leak any state through recycled
// worms — the second run on the engine is bit-identical to a run on a fresh
// engine, observed through counters, the delivery latency sequence, and the
// full lifecycle trace.
func TestPooledRunsAreBitIdentical(t *testing.T) {
	fresh := poolRun(t, new(Network))
	eng := new(Network)
	first := poolRun(t, eng)
	if eng.pool.Len() == 0 {
		t.Fatal("first run returned no messages to the engine's pool")
	}
	_, reusedFirst := eng.pool.Stats()
	second := poolRun(t, eng)
	if first != fresh {
		t.Error("first run on the engine diverged from a fresh engine's run")
	}
	if second != fresh {
		t.Error("run on a recycled pool diverged from a fresh engine's run")
	}
	if _, reuses := eng.pool.Stats(); reuses == reusedFirst {
		t.Error("second run reused nothing from the pool")
	}
}

// TestSteadyStateZeroAlloc: once warmed up, the engine cycle allocates
// nothing — the pool, scratch buffers, and struct-of-arrays layout absorb
// all steady-state work — for every routing algorithm, bare and with a
// metrics collector, and for every knob that switches on engine code of its
// own: injection ports and router delay, half-duplex arbitration, depth-1
// and cut-through buffers, the selection policies, mesh edges, every-cycle
// forensics, and full injection ports with observers attached. It is the
// zero-allocation contract's guard, so a knob that has a path of its own
// needs a row here.
func TestSteadyStateZeroAlloc(t *testing.T) {
	type row struct {
		name string
		alg  string
		mesh bool
		rate float64 // 0: 0.03 messages per node per cycle
		set  func(*Config)
	}
	withMetrics := func(c *Config) { c.Telemetry = &telemetry.Options{Metrics: true} }
	var rows []row
	for _, alg := range []string{"ecube", "nlast", "2pn", "phop", "nhop", "nbc"} {
		rows = append(rows, row{name: alg, alg: alg}, row{name: alg + "+telemetry", alg: alg, set: withMetrics})
	}
	rows = append(rows,
		row{name: "ports2-rd2", alg: "nbc", set: func(c *Config) { c.InjectionPorts, c.RouteDelay = 2, 2 }},
		row{name: "halfduplex", alg: "nbc", set: func(c *Config) { c.HalfDuplex = true }},
		row{name: "buf1", alg: "nbc", set: func(c *Config) { c.BufDepth = 1 }},
		row{name: "vct", alg: "nbc", set: func(c *Config) { c.BufDepth = 16 }},
		row{name: "first", alg: "nbc", set: func(c *Config) { c.Policy = routing.FirstFreePolicy{} }},
		row{name: "leastcongested", alg: "nbc", set: func(c *Config) { c.Policy = routing.LeastCongestedPolicy{} }},
		row{name: "mesh", alg: "nbc", mesh: true},
		row{name: "local", alg: "nbc", set: func(c *Config) {
			c.Workload = traffic.NewBernoulli(c.Grid, traffic.NewLocal(c.Grid, 3), 0.03, 7)
		}},
		row{name: "transpose", alg: "nbc", set: func(c *Config) {
			c.Workload = traffic.NewBernoulli(c.Grid, traffic.NewTranspose(c.Grid), 0.03, 7)
		}},
		row{name: "forensics+telemetry", alg: "ecube", set: func(c *Config) {
			withMetrics(c)
			c.Forensics = &forensics.Options{SampleEvery: 1}
		}},
		row{name: "ports1-full+observers", alg: "ecube", rate: 0.08, set: func(c *Config) {
			withMetrics(c)
			c.Forensics = &forensics.Options{}
			c.InjectionPorts = 1
		}},
	)
	for _, r := range rows {
		g := topology.New(8, 2, r.mesh)
		alg, err := routing.Get(r.alg)
		if err != nil {
			t.Fatal(err)
		}
		rate := r.rate
		if rate == 0 {
			rate = 0.03
		}
		cfg := Config{
			Grid: g, Algorithm: alg, Workload: traffic.NewBernoulli(g, traffic.NewUniform(g), rate, 7),
			MsgLen: 16, CCLimit: 2, Seed: 7,
		}
		if r.set != nil {
			r.set(&cfg)
		}
		n, err := New(cfg)
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
			t.Errorf("%s: %.3f allocs per steady-state cycle, want 0", r.name, avg)
		}
	}
}
