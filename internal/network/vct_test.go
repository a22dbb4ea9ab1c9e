package network

import (
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// runUniform drives a uniform workload and returns achieved utilization.
func runUniform(t *testing.T, algName string, bufDepth int, rate float64, cycles int64) float64 {
	t.Helper()
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get(algName)
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), rate, 21)
	n, err := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16,
		BufDepth: bufDepth, CCLimit: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(cycles); err != nil {
		t.Fatal(err)
	}
	return n.Total().Utilization(g.NumChannels())
}

// TestVCTLiftsSaturationThroughput: cut-through buffers (depth = message
// length) raise saturation throughput over wormhole buffers for every
// algorithm, most for the VC-poor ones.
func TestVCTLiftsSaturationThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, algName := range []string{"ecube", "2pn", "nbc"} {
		wh := runUniform(t, algName, 4, 0.05, 6000)
		vct := runUniform(t, algName, 16, 0.05, 6000)
		if vct < wh {
			t.Errorf("%s: vct %.3f below wormhole %.3f at saturation", algName, vct, wh)
		}
	}
}

// TestVCTUnloadedLatencyUnchanged: with no contention, cut-through and
// wormhole deliver at the same pipeline latency (eq. 2): deep buffers only
// matter when blocking occurs.
func TestVCTUnloadedLatencyUnchanged(t *testing.T) {
	g := topology.NewTorus(16, 2)
	for _, bufDepth := range []int{4, 16, 64} {
		alg, _ := routing.Get("nbc")
		wl := traffic.NewTrace(g, "one", []int64{0},
			[]traffic.Arrival{{Src: 0, Dst: g.ID([]int{5, 4})}})
		var lat int64
		n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, BufDepth: bufDepth, Seed: 1,
			OnDeliver: func(m *message.Message) { lat = m.Latency() }})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		if err := n.Drain(10000); err != nil {
			t.Fatal(err)
		}
		if lat != 9+16-1 {
			t.Errorf("bufDepth %d: unloaded latency %d, want 24", bufDepth, lat)
		}
	}
}

// TestBufferDepthMonotone: throughput is non-decreasing in buffer depth at
// a fixed load (more slack never hurts in this engine).
func TestBufferDepthMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	prev := 0.0
	for i, depth := range []int{2, 4, 8, 16} {
		u := runUniform(t, "ecube", depth, 0.04, 5000)
		if i > 0 && u < prev*0.97 { // allow small stochastic slack
			t.Errorf("depth %d throughput %.3f dropped below previous %.3f", depth, u, prev)
		}
		prev = u
	}
}

// TestWatchdogDisabled: a negative watchdog setting never fires, even on a
// wedged network (the run just keeps stepping).
func TestWatchdogDisabled(t *testing.T) {
	g := topology.NewTorus(8, 1)
	var cycles []int64
	var arrs []traffic.Arrival
	for src := 0; src < 8; src++ {
		cycles = append(cycles, 0)
		arrs = append(arrs, traffic.Arrival{Src: src, Dst: (src + 2) % 8})
	}
	wl := traffic.NewTrace(g, "cycle", cycles, arrs)
	n, err := New(Config{
		Grid: g, Algorithm: cyclicAlg{}, Workload: wl, MsgLen: 16,
		BufDepth: 1, Seed: 1, WatchdogCycles: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(5000); err != nil {
		t.Fatalf("disabled watchdog still fired: %v", err)
	}
	if n.InFlight() == 0 {
		t.Fatal("expected the cyclic workload to wedge")
	}
}

// TestCountersWindowVsTotal: windows measured as differences of Total
// reads, as core measures a sampling period, cover their cycles and
// partition the totals. Total returns a copy, so a read taken at a window's
// start is not moved by the cycles after it or by its holder.
func TestCountersWindowVsTotal(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("phop")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.02, 31)
	n, _ := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 31})
	var sumFlits, sumGen, sumClass0 int64
	start := n.Total()
	for i := 0; i < 4; i++ {
		if err := n.Run(500); err != nil {
			t.Fatal(err)
		}
		end := n.Total()
		w := window(start, end)
		if w.Cycles != 500 || w.FlitMoves == 0 {
			t.Errorf("window %d: %+v, want 500 cycles with flit moves", i, w)
		}
		sumFlits += w.FlitMoves
		sumGen += w.Generated
		sumClass0 += w.FlitMovesByClass[0]
		end.FlitMovesByClass[0] = -1
		start = n.Total()
	}
	tot := n.Total()
	if tot.Cycles != 2000 || sumFlits != tot.FlitMoves || sumGen != tot.Generated || sumClass0 != tot.FlitMovesByClass[0] {
		t.Errorf("windows sum to %d/%d/%d, totals %+v", sumFlits, sumGen, sumClass0, tot)
	}
}
