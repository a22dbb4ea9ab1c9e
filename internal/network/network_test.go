package network

import (
	"errors"
	"math"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// singleMessage builds a network that injects exactly one message at cycle
// 0 and returns it plus a collector for the delivery.
func singleMessage(t *testing.T, g *topology.Grid, algName string, src, dst int, msgLen int) *message.Message {
	t.Helper()
	alg, err := routing.Get(algName)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewTrace(g, "one", []int64{0}, []traffic.Arrival{{Src: src, Dst: dst}})
	var delivered *message.Message
	n, err := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: msgLen, Seed: 1,
		OnDeliver: func(m *message.Message) { delivered = m },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step once so the cycle-0 injection happens before Drain's empty check.
	if err := n.Step(); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(10000); err != nil {
		t.Fatalf("%s: %v", algName, err)
	}
	if delivered == nil {
		t.Fatalf("%s: message not delivered", algName)
	}
	return delivered
}

// TestUnloadedLatencyMatchesEquationTwo: with no contention the latency is
// w + (ml + d - 1) * ft with w = 0 and ft = 1 — eq. (2) of the paper — for
// every algorithm.
func TestUnloadedLatencyMatchesEquationTwo(t *testing.T) {
	g := topology.NewTorus(16, 2)
	cases := []struct {
		src, dst [2]int
	}{
		{[2]int{0, 0}, [2]int{3, 0}},  // 3 hops one dim
		{[2]int{4, 4}, [2]int{2, 2}},  // 4 hops two dims
		{[2]int{14, 1}, [2]int{2, 1}}, // wraps the dateline
		{[2]int{0, 0}, [2]int{8, 8}},  // full diameter
		{[2]int{5, 5}, [2]int{6, 5}},  // single hop
	}
	for _, algName := range []string{"ecube", "nlast", "2pn", "2pnsrc", "phop", "nhop", "nbc"} {
		for _, tc := range cases {
			src := g.ID(tc.src[:])
			dst := g.ID(tc.dst[:])
			m := singleMessage(t, g, algName, src, dst, 16)
			want := int64(g.Distance(src, dst) + 16 - 1)
			if m.Latency() != want {
				t.Errorf("%s %v->%v: latency %d, want %d", algName, tc.src, tc.dst, m.Latency(), want)
			}
		}
	}
}

func TestUnloadedLatencyOnMesh(t *testing.T) {
	g := topology.NewMesh(8, 2)
	for _, algName := range []string{"ecube", "nlast", "2pn", "phop", "nhop", "nbc"} {
		src := g.ID([]int{0, 7})
		dst := g.ID([]int{7, 0})
		m := singleMessage(t, g, algName, src, dst, 16)
		want := int64(14 + 16 - 1)
		if m.Latency() != want {
			t.Errorf("%s on mesh: latency %d, want %d", algName, m.Latency(), want)
		}
	}
}

func TestShortMessage(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := singleMessage(t, g, "ecube", 0, g.ID([]int{2, 3}), 1)
	if m.Latency() != 5 { // 5 hops, 1 flit
		t.Errorf("1-flit latency %d, want 5", m.Latency())
	}
}

// TestFlitConservation: after a drain, the total flit transfers equal the
// sum over delivered messages of hops * length.
func TestFlitConservation(t *testing.T) {
	g := topology.NewTorus(8, 2)
	for _, algName := range []string{"ecube", "phop", "nbc", "2pn", "nlast"} {
		alg, _ := routing.Get(algName)
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.01, 3)
		var hopFlits int64
		n, err := New(Config{
			Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 3,
			OnDeliver: func(m *message.Message) { hopFlits += int64(m.HopsTotal) * int64(m.Len) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(2000); err != nil {
			t.Fatalf("%s: %v", algName, err)
		}
		quiet := traffic.NewBernoulli(g, traffic.NewUniform(g), 0, 3)
		*wl = *quiet
		if err := n.Drain(50000); err != nil {
			t.Fatalf("%s drain: %v", algName, err)
		}
		tot := n.Total()
		if tot.FlitMoves != hopFlits {
			t.Errorf("%s: %d flit moves, deliveries account for %d", algName, tot.FlitMoves, hopFlits)
		}
		if tot.Delivered != tot.Admitted {
			t.Errorf("%s: admitted %d != delivered %d after drain", algName, tot.Admitted, tot.Delivered)
		}
		if n.InFlight() != 0 {
			t.Errorf("%s: %d still in flight", algName, n.InFlight())
		}
		var byClass int64
		for _, c := range tot.FlitMovesByClass {
			byClass += c
		}
		if byClass != tot.FlitMoves {
			t.Errorf("%s: per-class flits %d != total %d", algName, byClass, tot.FlitMoves)
		}
	}
}

// TestDeadlockFreedomUnderStress: every paper algorithm must survive a
// saturating load and then drain completely. This is the empirical check
// backing each algorithm's deadlock-freedom argument.
func TestDeadlockFreedomUnderStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := topology.NewTorus(8, 2)
	for _, algName := range []string{"ecube", "nlast", "2pn", "phop", "nhop", "nbc", "ecube2x", "wfirst", "negfirst"} {
		for _, patName := range []string{"uniform", "complement"} {
			pat, err := traffic.Parse(g, patName)
			if err != nil {
				t.Fatal(err)
			}
			alg, _ := routing.Get(algName)
			wl := traffic.NewBernoulli(g, pat, 0.05, 11) // far beyond saturation
			n, err := New(Config{
				Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Run(10000); err != nil {
				t.Fatalf("%s/%s: %v", algName, patName, err)
			}
			quiet := traffic.NewBernoulli(g, pat, 0, 11)
			*wl = *quiet
			if err := n.Drain(100000); err != nil {
				t.Fatalf("%s/%s failed to drain: %v", algName, patName, err)
			}
		}
	}
}

// TestSourceTag2pnCanDeadlock pins the empirical half of the EXPERIMENTS.md
// D1 hypothesis: the literal source-computed eq. (1) tag genuinely
// deadlocks under load on a torus — this exact configuration wedges and
// fails to drain (found by a 45-configuration stress sweep; deterministic
// given the seed). The per-hop variant passes the same sweep, see
// TestDeadlockFreedomUnderStress.
func TestSourceTag2pnCanDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("2pnsrc")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.05, 1)
	n, err := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 1,
		WatchdogCycles: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = n.Run(15000)
	if err == nil {
		quiet := traffic.NewBernoulli(g, traffic.NewUniform(g), 0, 1)
		*wl = *quiet
		err = n.Drain(200000)
	}
	if err == nil {
		t.Error("expected the source-tag 2pn to wedge in this configuration; " +
			"if engine changes altered the schedule, find a new witness via a seed sweep")
	}
}

// cyclicAlg is a deliberately deadlocking algorithm: one virtual channel,
// always travel Plus in dimension 0. On a ring with concurrent worms the
// channel-dependency cycle closes and nothing can move.
type cyclicAlg struct{}

func (cyclicAlg) Name() string                                                       { return "cyclic" }
func (cyclicAlg) FullyAdaptive() bool                                                { return false }
func (cyclicAlg) NumVCs(*topology.Grid) int                                          { return 1 }
func (cyclicAlg) Compatible(*topology.Grid) error                                    { return nil }
func (cyclicAlg) Init(*topology.Grid, *message.Message)                              {}
func (cyclicAlg) Allocated(*topology.Grid, *message.Message, int, routing.Candidate) {}
func (cyclicAlg) Candidates(g *topology.Grid, m *message.Message, node int, dst []routing.Candidate) []routing.Candidate {
	return append(dst, routing.Candidate{Dim: 0, Dir: topology.Plus, VC: 0})
}

// TestWatchdogDetectsDeadlock: four worms chasing each other around a
// 4-ring with one virtual channel must wedge, and the watchdog must say so.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	g := topology.NewTorus(8, 1)
	// Every node sends two hops ahead (+ direction, below the half-ring tie
	// so the direction is forced); worms are long enough to span their two
	// channels and block each other all around the ring.
	var cycles []int64
	var arrs []traffic.Arrival
	for src := 0; src < 8; src++ {
		cycles = append(cycles, 0)
		arrs = append(arrs, traffic.Arrival{Src: src, Dst: (src + 2) % 8})
	}
	wl := traffic.NewTrace(g, "cycle", cycles, arrs)
	n, err := New(Config{
		Grid: g, Algorithm: cyclicAlg{}, Workload: wl, MsgLen: 16,
		BufDepth: 1, Seed: 1, WatchdogCycles: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Step(); err != nil {
		t.Fatal(err)
	}
	err = n.Drain(5000)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected a DeadlockError, got %v", err)
	}
	if dl.InFlight == 0 {
		t.Error("deadlock error reports no messages in flight")
	}
	if dl.Error() == "" || dl.Detail == "" {
		t.Error("deadlock diagnostics empty")
	}

	// Observed, the wedged headers sit parked for the watchdog's whole window.
	// The report is written with their blocked cycles charged: telemetry reads
	// the same whether forensics woke every header every cycle or never did.
	headBlocked := func(every int64) int64 {
		wl.Reseed(0)
		n, err := New(Config{
			Grid: g, Algorithm: cyclicAlg{}, Workload: wl, MsgLen: 16, BufDepth: 1, Seed: 1, WatchdogCycles: 200,
			Telemetry: &telemetry.Options{}, Forensics: &forensics.Options{SampleEvery: every},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(5000); !errors.As(err, &dl) {
			t.Fatalf("expected a DeadlockError, got %v", err)
		}
		tel, _ := n.Observers()
		return tel.TotalHeadBlocked()
	}
	if lazy, eager := headBlocked(1000), headBlocked(1); lazy != eager || eager < 200 {
		t.Errorf("at the deadlock report telemetry counts %d head-blocked cycles, %d when every header bids every cycle (want equal, and a window's worth)", lazy, eager)
	}
}

// TestDeterminism: identical configurations produce identical histories.
func TestDeterminism(t *testing.T) {
	run := func() Counters {
		g := topology.NewTorus(8, 2)
		alg, _ := routing.Get("nbc")
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, 42)
		n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(3000); err != nil {
			t.Fatal(err)
		}
		return n.Total()
	}
	a, b := run(), run()
	if a.FlitMoves != b.FlitMoves || a.Delivered != b.Delivered || a.Generated != b.Generated || a.Dropped != b.Dropped {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesHistory(t *testing.T) {
	run := func(seed uint64) Counters {
		g := topology.NewTorus(8, 2)
		alg, _ := routing.Get("nbc")
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, seed)
		n, _ := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: seed})
		if err := n.Run(2000); err != nil {
			t.Fatal(err)
		}
		return n.Total()
	}
	if a, b := run(1), run(2); a.FlitMoves == b.FlitMoves && a.Generated == b.Generated && a.Delivered == b.Delivered {
		t.Error("different seeds gave identical histories (suspicious)")
	}
}

func TestCongestionControlDropsAndBounds(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("ecube")
	mk := func(limit int) Counters {
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.08, 5)
		n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: limit, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(4000); err != nil {
			t.Fatal(err)
		}
		return n.Total()
	}
	withCC := mk(1)
	if withCC.Dropped == 0 {
		t.Error("saturating load with CC limit 1 should drop messages")
	}
	if withCC.Admitted+withCC.Dropped != withCC.Generated {
		t.Error("admitted + dropped != generated")
	}
	noCC := mk(0)
	if noCC.Dropped != 0 {
		t.Error("without CC nothing should be dropped")
	}
}

func TestInjectionPortsThrottle(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("phop")
	run := func(ports int) int64 {
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.06, 9)
		n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, InjectionPorts: ports, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(4000); err != nil {
			t.Fatal(err)
		}
		return n.Total().FlitMoves
	}
	one, four := run(1), run(4)
	if one >= four {
		t.Errorf("1 injection port moved %d flits, 4 ports moved %d; expected a throttle", one, four)
	}
}

func TestUtilizationBounded(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("nbc")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.08, 13)
	n, _ := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 13})
	if err := n.Run(4000); err != nil {
		t.Fatal(err)
	}
	u := n.Total().Utilization(g.NumChannels())
	if u <= 0 || u > 1 {
		t.Errorf("utilization %v out of (0,1]", u)
	}
	var zero Counters
	if zero.Utilization(10) != 0 {
		t.Error("empty counters should have zero utilization")
	}
}

// window returns the counts accumulated between two Total reads.
func window(from, to Counters) Counters {
	w := Counters{
		Cycles:    to.Cycles - from.Cycles,
		FlitMoves: to.FlitMoves - from.FlitMoves,
		Generated: to.Generated - from.Generated,
		Admitted:  to.Admitted - from.Admitted,
		Dropped:   to.Dropped - from.Dropped,
		Delivered: to.Delivered - from.Delivered,
	}
	for i, v := range to.FlitMovesByClass {
		w.FlitMovesByClass = append(w.FlitMovesByClass, v-from.FlitMovesByClass[i])
	}
	return w
}

func TestVCTBlockedWormParks(t *testing.T) {
	// Under VCT (BufDepth >= MsgLen) a blocked worm frees its upstream
	// channels: with wormhole it cannot. Verify via per-class occupancy on
	// a long line: a victim worm is blocked behind a standing worm.
	g := topology.NewTorus(16, 2)
	alg, _ := routing.Get("phop")
	count := func(bufDepth int) int {
		// Two messages on the same row: a long-haul one injected first and
		// a follower that must share channels.
		wl := traffic.NewTrace(g, "pair",
			[]int64{0, 0, 0, 0, 0, 0},
			[]traffic.Arrival{
				{Src: g.ID([]int{0, 0}), Dst: g.ID([]int{7, 0})},
				{Src: g.ID([]int{0, 0}), Dst: g.ID([]int{7, 0})},
				{Src: g.ID([]int{0, 0}), Dst: g.ID([]int{7, 0})},
				{Src: g.ID([]int{1, 0}), Dst: g.ID([]int{7, 0})},
				{Src: g.ID([]int{2, 0}), Dst: g.ID([]int{7, 0})},
				{Src: g.ID([]int{3, 0}), Dst: g.ID([]int{7, 0})},
			})
		n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, BufDepth: bufDepth, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		integral := 0
		for i := 0; i < 200; i++ {
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
			for _, c := range n.OccupiedVCsByClass() {
				integral += c
			}
		}
		return integral
	}
	wormhole := count(2)
	vct := count(16)
	if wormhole <= vct {
		t.Errorf("wormhole worms should hold channel-cycles longer than VCT: %d vs %d", wormhole, vct)
	}
}

func TestConfigValidation(t *testing.T) {
	g := topology.NewTorus(16, 2)
	alg, _ := routing.Get("ecube")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.01, 1)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, BufDepth: -1}); err == nil {
		t.Error("negative BufDepth accepted")
	}
	nh, _ := routing.Get("nhop")
	odd := topology.NewTorus(5, 2)
	wlOdd := traffic.NewBernoulli(odd, traffic.NewUniform(odd), 0.01, 1)
	if _, err := New(Config{Grid: odd, Algorithm: nh, Workload: wlOdd}); err == nil {
		t.Error("nhop on an odd torus accepted")
	}
}

func TestReseedKeepsRunning(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("nbc")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.02, 1)
	n, _ := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 1})
	if err := n.Run(500); err != nil {
		t.Fatal(err)
	}
	n.Reseed(777)
	if err := n.Run(500); err != nil {
		t.Fatal(err)
	}
	if n.Total().Delivered == 0 {
		t.Error("nothing delivered across a reseed")
	}
}

// TestLoadedLatencyExceedsUnloaded: queueing delay must appear at load.
func TestLoadedLatencyExceedsUnloaded(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("ecube")
	meanLat := func(rate float64) float64 {
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), rate, 17)
		var sum, count float64
		n, _ := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 17,
			OnDeliver: func(m *message.Message) { sum += float64(m.Latency()); count++ }})
		if err := n.Run(5000); err != nil {
			t.Fatal(err)
		}
		if count == 0 {
			t.Fatal("no deliveries")
		}
		return sum / count
	}
	low := meanLat(0.001)
	high := meanLat(0.03)
	if high <= low {
		t.Errorf("latency at load (%.1f) not above unloaded (%.1f)", high, low)
	}
	// Unloaded mean must be close to mean distance + 15.
	wantLow := topology.NewTorus(8, 2).MeanUniformDistance() + 15
	if math.Abs(low-wantLow) > 2 {
		t.Errorf("unloaded mean latency %.2f, want about %.2f", low, wantLow)
	}
}

func TestOccupiedVCsByClassLength(t *testing.T) {
	g := topology.NewTorus(16, 2)
	alg, _ := routing.Get("phop")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.01, 1)
	n, _ := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 1})
	if got := len(n.OccupiedVCsByClass()); got != 17 {
		t.Errorf("occupancy vector length %d, want 17", got)
	}
	if n.NumVCs() != 17 {
		t.Errorf("NumVCs = %d", n.NumVCs())
	}
}
