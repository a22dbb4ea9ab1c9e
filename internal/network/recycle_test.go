package network

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// A batch, in this file, is what core.SweepReplicated and core.RunFigure make
// of one worker's engine: points run back to back on it, each after a Reset. The tests hold
// every member of such a batch bit-identical to the same point on a fresh
// engine, whatever ran before it.

// batchGrids are the bit-identity test topologies: every shape the CDG
// certification suite covers.
var batchGrids = []struct {
	name string
	k, n int
	mesh bool
}{
	{"4x4-torus", 4, 2, false},
	{"4x4-mesh", 4, 2, true},
	{"8x8-torus", 8, 2, false},
	{"8x8-mesh", 8, 2, true},
	{"4x4x4-torus", 4, 3, false},
	{"4x4x4-mesh", 4, 3, true},
}

func batchGrid(k, n int, mesh bool) *topology.Grid {
	if mesh {
		return topology.NewMesh(k, n)
	}
	return topology.NewTorus(k, n)
}

// fpPoint is one point of a fingerprinted run.
type fpPoint struct {
	g                 *topology.Grid
	alg               routing.Algorithm
	rate              float64
	routeDelay, ports int
	bufDepth          int // 0: engine default
	halfDuplex        bool
	policy            routing.SelectionPolicy // nil: random
	seed              uint64
	cycles            int64
	// check runs checkInvariants after every cycle.
	check bool
	// observed attaches a fresh telemetry collector and forensics analyzer and
	// adds their summaries to the fingerprint.
	observed bool
}

// fingerprint re-initialises n for the point, runs it for its cycles (with a
// mid-run reseed and window reset at half time, mirroring the core sampling
// loop) and fingerprints everything observable: per-window counters, the
// delivery sequence, the header-hop trace, per-channel flit counts and the
// final in-flight state — and, for an observed point, the telemetry and
// forensics summaries with the parked headers settled. Pass new(Network) for a
// fresh engine.
func fingerprint(t *testing.T, n *Network, p fpPoint) string {
	t.Helper()
	wl := traffic.NewBernoulli(p.g, traffic.NewUniform(p.g), p.rate, p.seed)
	var events []string
	// Whatever a run on a grid of another n left in the engine's pool, free or
	// in flight, is of no use to this one (see ledgerError).
	foreign := 0
	if n.g != nil && n.g.N() != p.g.N() {
		foreign = n.pool.Len() + n.inFlight
	}
	run := func(cycles int64) {
		t.Helper()
		if !p.check {
			if err := n.Run(cycles); err != nil {
				t.Fatal(err)
			}
			return
		}
		for i := int64(0); i < cycles; i++ {
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
			checkInvariantsAfter(t, n, foreign)
		}
	}
	cfg := Config{
		Grid: p.g, Algorithm: p.alg, Policy: p.policy, Workload: wl, MsgLen: 8, BufDepth: p.bufDepth, CCLimit: 2, Seed: p.seed,
		RouteDelay: p.routeDelay, InjectionPorts: p.ports, HalfDuplex: p.halfDuplex,
		OnDeliver: func(m *message.Message) {
			events = append(events, fmt.Sprintf("d %d %d %d %d %d", m.ID, m.Src, m.Dst, m.Latency(), m.HeadStalls))
		},
		OnHeaderHop: func(m *message.Message, node, dim int, dir topology.Dir) {
			events = append(events, fmt.Sprintf("h %d %d %d %v", m.ID, node, dim, dir))
		},
	}
	if p.observed {
		cfg.Telemetry = &telemetry.Options{}
		cfg.Forensics = &forensics.Options{SampleEvery: 16}
	}
	if err := n.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	half := p.cycles / 2
	run(half)
	first := n.Window()
	n.ResetWindow()
	n.Reseed(p.seed + 0x9e3779b97f4a7c15)
	run(p.cycles - half)
	fp := fmt.Sprintf("%+v\n%+v\n%+v\n%v\n%v\n%v", first, n.Window(), n.Total(), n.ChannelFlitCounts(), n.WormStates(), strings.Join(events, "\n"))
	if p.observed {
		tel, fore := n.Observers()
		fp += fmt.Sprintf("\n%+v\n%+v", *tel, *fore)
	}
	return fp
}

// TestBatchScalarBitIdentity: every member of a batch of seeds run back to
// back on a recycled engine is bit-identical to a scalar run of the same
// config and seed on a fresh engine, across all algorithms and the
// certification grid shapes. One engine serves the whole matrix, so it also
// crosses every change of grid and virtual-channel count.
func TestBatchScalarBitIdentity(t *testing.T) {
	seeds := []uint64{11, 7, 23}
	eng := new(Network)
	for _, gc := range batchGrids {
		g := batchGrid(gc.k, gc.n, gc.mesh)
		for _, algName := range routing.Names() {
			alg, err := routing.Get(algName)
			if err != nil {
				t.Fatal(err)
			}
			if alg.Compatible(g) != nil {
				continue
			}
			t.Run(gc.name+"/"+algName, func(t *testing.T) {
				cycles := int64(1200)
				if testing.Short() && gc.k > 4 {
					cycles = 400
				}
				for r, seed := range seeds {
					p := fpPoint{g: g, alg: alg, rate: 0.02, seed: seed, cycles: cycles}
					if fingerprint(t, eng, p) != fingerprint(t, new(Network), p) {
						t.Errorf("replica %d (seed %d) on the recycled engine diverged from a fresh run", r, seed)
					}
				}
			})
		}
	}
}

// TestRecycleObserverBitIdentity: telemetry and forensics attach to one member
// of a batch only. The observed member matches an instrumented run on a fresh
// engine — identical counters, lifecycle trace and analyzer summary — and
// the bare members before and after it match bare fresh runs: an observer
// that the previous run attached (and the every-cycle blocked accounting it
// switches on) does not outlive its run.
func TestRecycleObserverBitIdentity(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, err := routing.Get("nbc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(n *Network, seed uint64, observed bool) string {
		cfg := Config{
			Grid: g, Algorithm: alg, Workload: traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, seed),
			MsgLen: 16, CCLimit: 2, Seed: seed,
		}
		if observed {
			cfg.Telemetry = &telemetry.Options{Trace: true, TraceCap: 1 << 16}
			cfg.Forensics = &forensics.Options{SampleEvery: 16}
		}
		if err := n.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(1500); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("%+v\n%v", n.Total(), n.WormStates())
		if observed {
			events, _ := n.Trace(0, 0)
			_, fore := n.Observers()
			out += fmt.Sprintf("\n%s\n%+v", telemetry.FormatEvents(events), fore)
		}
		return out
	}
	eng := new(Network)
	for i, m := range []struct {
		seed     uint64
		observed bool
	}{{43, false}, {42, true}, {43, false}, {42, true}} {
		if run(eng, m.seed, m.observed) != run(new(Network), m.seed, m.observed) {
			t.Errorf("batch member %d (seed %d, observed %v) diverged from a fresh run", i, m.seed, m.observed)
		}
	}
}

// TestRecycleReplicaDropout: a replica that leaves the batch mid-flight — the
// convergence rule stops a saturated run with the network full of worms,
// parked headers and live injection slots — leaves nothing behind for the
// next member, including when that member has fewer or more virtual channels
// and a different buffer depth than the one that dropped out.
func TestRecycleReplicaDropout(t *testing.T) {
	g := topology.NewTorus(8, 2)
	get := func(name string) routing.Algorithm {
		alg, err := routing.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	nbc, ecube, phop := get("nbc"), get("ecube"), get("phop")
	eng := new(Network)
	for i, p := range []fpPoint{
		{g: g, alg: nbc, rate: 0.2, seed: 5, cycles: 700},
		{g: g, alg: ecube, rate: 0.03, seed: 6, cycles: 900},
		{g: g, alg: phop, rate: 0.2, ports: 1, bufDepth: 8, seed: 7, cycles: 500},
		{g: g, alg: nbc, rate: 0.03, routeDelay: 2, seed: 8, cycles: 900},
		{g: topology.NewMesh(4, 3), alg: ecube, rate: 0.2, bufDepth: 1, seed: 9, cycles: 600},
		{g: g, alg: nbc, rate: 0.2, seed: 5, cycles: 700},
	} {
		if fingerprint(t, eng, p) != fingerprint(t, new(Network), p) {
			t.Errorf("batch member %d (%s, seed %d) diverged from a fresh run", i, p.alg.Name(), p.seed)
		}
		if p.rate >= 0.2 && eng.InFlight() == 0 {
			t.Errorf("batch member %d ended with an empty network; the test needs it loaded", i)
		}
	}
}

// TestRecycleSteadyStateZeroAlloc is the allocation guard of engine recycling:
// once a first point has sized the engine, a further point of unchanged shape
// allocates no per-VC array, bitset, channel table or requester list — a
// fresh 16x16 nbc engine allocates about 0.9 MB, a recycled one only the
// small per-run objects (limiter, random stream, the messages a longer run
// adds to the pool).
func TestRecycleSteadyStateZeroAlloc(t *testing.T) {
	g := topology.NewTorus(16, 2)
	alg, err := routing.Get("nbc")
	if err != nil {
		t.Fatal(err)
	}
	point := func(n *Network, seed uint64) uint64 {
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.02, seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := n.Reset(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, InjectionPorts: 2, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		if err := n.Run(1500); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	eng := new(Network)
	fresh := point(eng, 1)
	if fresh < 500<<10 {
		t.Fatalf("fresh engine allocated only %d bytes; the guard below would prove nothing", fresh)
	}
	for seed := uint64(2); seed <= 4; seed++ {
		if got := point(eng, seed); got > 64<<10 {
			t.Errorf("point %d on the recycled engine allocated %d bytes, want at most %d (fresh: %d)", seed, got, 64<<10, fresh)
		}
	}
}

// TestRecycleWatchdogFault: a member that wedges is reported by the watchdog
// with its diagnostics, and the engine it wedged — every buffer on the ring
// held by a stuck worm — serves the next, healthy member exactly as a fresh
// engine would.
func TestRecycleWatchdogFault(t *testing.T) {
	ring := topology.NewTorus(8, 1)
	var cycles []int64
	var arrs []traffic.Arrival
	for src := 0; src < 8; src++ {
		cycles = append(cycles, 0)
		arrs = append(arrs, traffic.Arrival{Src: src, Dst: (src + 2) % 8})
	}
	eng := new(Network)
	err := eng.Reset(Config{
		Grid: ring, Algorithm: cyclicAlg{}, Workload: traffic.NewTrace(ring, "cycle", cycles, arrs),
		Seed: 1, MsgLen: 16, BufDepth: 1, WatchdogCycles: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fault *DeadlockError
	if err := eng.Run(5000); !errors.As(err, &fault) {
		t.Fatalf("wedged member ended with %v, want a DeadlockError", err)
	}
	if fault.InFlight == 0 || fault.Detail == "" {
		t.Errorf("fault diagnostics incomplete: %+v", fault)
	}
	alg, err := routing.Get("ecube")
	if err != nil {
		t.Fatal(err)
	}
	p := fpPoint{g: ring, alg: alg, rate: 0.05, seed: 2, cycles: 600}
	if fingerprint(t, eng, p) != fingerprint(t, new(Network), p) {
		t.Error("healthy member diverged from a fresh run after the engine wedged")
	}
}
