package network

import (
	"strings"
	"testing"

	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

func TestSnapshot(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("nbc")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.02, 3)
	n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Snapshot(); !strings.Contains(got, "0 worms in flight") {
		t.Errorf("empty snapshot = %q", got)
	}
	if err := n.Run(50); err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if !strings.Contains(snap, "worms in flight") || !strings.Contains(snap, "holds") {
		t.Errorf("loaded snapshot missing structure:\n%s", snap)
	}
	if n.InFlight() > 0 && !strings.Contains(snap, "msg ") {
		t.Errorf("snapshot lists no worms despite %d in flight:\n%s", n.InFlight(), snap)
	}
}

// oneShot injects a single 0→3 message on the first cycle and then goes
// quiet, so the probe below watches exactly one worm from injection to
// drain.
type oneShot struct{ sent bool }

func (o *oneShot) Name() string { return "oneshot" }

func (o *oneShot) Arrivals(cycle int64, buf []traffic.Arrival) []traffic.Arrival {
	if o.sent {
		return buf[:0]
	}
	o.sent = true
	return append(buf[:0], traffic.Arrival{Src: 0, Dst: 3})
}

func (o *oneShot) Reseed(uint64)              {}
func (o *oneShot) MeanDistance() float64      { return 3 }
func (o *oneShot) HopClassWeights() []float64 { return []float64{0, 0, 0, 1} }

// TestWormStateProbeDuringTransit drives one worm down a 4-node line and
// checks the WormStates snapshot stays coherent every cycle: the head sits
// on a real node, hop progress is monotone and bounded, and a routed worm
// holds at least one virtual channel. The worm must fully drain well within
// the cycle budget.
func TestWormStateProbeDuringTransit(t *testing.T) {
	g := topology.NewMesh(4, 1)
	alg, err := routing.Get("ecube")
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Grid:      g,
		Algorithm: alg,
		Policy:    routing.RandomPolicy{},
		Workload:  &oneShot{},
		MsgLen:    8,
		BufDepth:  1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen, drained := false, false
	lastHops := 0
	for i := 0; i < 80; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		ws := n.WormStates()
		if len(ws) == 0 {
			if seen {
				drained = true
				break
			}
			continue
		}
		if len(ws) != 1 {
			t.Fatalf("cycle %d: %d worms in flight, want 1", i, len(ws))
		}
		seen = true
		w := ws[0]
		t.Logf("cycle %d: head=%d hops=%d/%d routed=%v holds=%d flits=%d",
			i, w.HeadNode, w.HopsTaken, w.HopsTotal, w.Routed, w.HeldVCs(), w.BufferedFlits())
		if w.Src != 0 || w.Dst != 3 || w.Len != 8 {
			t.Fatalf("cycle %d: worm is %d→%d len %d, want 0→3 len 8", i, w.Src, w.Dst, w.Len)
		}
		if w.HeadNode < 0 || w.HeadNode >= g.Nodes() {
			t.Fatalf("cycle %d: head node %d outside grid", i, w.HeadNode)
		}
		if w.HopsTotal != 3 {
			t.Fatalf("cycle %d: HopsTotal = %d, want 3", i, w.HopsTotal)
		}
		if w.HopsTaken < lastHops || w.HopsTaken > w.HopsTotal {
			t.Fatalf("cycle %d: HopsTaken = %d (previously %d), want monotone in [0,%d]",
				i, w.HopsTaken, lastHops, w.HopsTotal)
		}
		lastHops = w.HopsTaken
		if w.Routed && w.HopsTaken > 0 && w.HeldVCs() == 0 {
			t.Fatalf("cycle %d: routed worm past injection holds no virtual channel", i)
		}
	}
	if !seen {
		t.Fatal("worm never appeared in WormStates")
	}
	if !drained {
		t.Fatal("worm did not drain within 80 cycles")
	}
}
