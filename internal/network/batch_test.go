package network

import (
	"fmt"
	"strings"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

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

// scalarFingerprint runs a scalar Network for cycles (with a mid-run reseed
// and window reset at half time, mirroring the core sampling loop) and
// fingerprints everything observable: counters, the delivery sequence, the
// header-hop trace and the final in-flight state.
func scalarFingerprint(t *testing.T, g *topology.Grid, alg routing.Algorithm, rate float64, routeDelay, ports int, seed uint64, cycles int64) string {
	t.Helper()
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), rate, seed)
	var events []string
	n, err := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8, CCLimit: 2, Seed: seed,
		RouteDelay: routeDelay, InjectionPorts: ports,
		OnDeliver: func(m *message.Message) {
			events = append(events, fmt.Sprintf("d %d %d %d %d", m.ID, m.Src, m.Dst, m.Latency()))
		},
		OnHeaderHop: func(m *message.Message, node, dim int, dir topology.Dir) {
			events = append(events, fmt.Sprintf("h %d %d %d %v", m.ID, node, dim, dir))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	half := cycles / 2
	if err := n.Run(half); err != nil {
		t.Fatal(err)
	}
	n.ResetWindow()
	n.Reseed(seed + 0x9e3779b97f4a7c15)
	if err := n.Run(cycles - half); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%+v\n%+v\n%v\n%v\n%v", n.Window(), n.Total(), n.ChannelFlitCounts(), n.WormStates(), strings.Join(events, "\n"))
}

// batchFingerprints runs a BatchNetwork over seeds with the same schedule
// as scalarFingerprint and returns one fingerprint per replica.
func batchFingerprints(t *testing.T, g *topology.Grid, alg routing.Algorithm, rate float64, routeDelay, ports int, seeds []uint64, cycles int64) []string {
	t.Helper()
	wls := make([]traffic.Workload, len(seeds))
	base := traffic.NewBernoulli(g, traffic.NewUniform(g), rate, seeds[0])
	for r, seed := range seeds {
		wls[r] = base.Replicate(seed)
	}
	events := make([][]string, len(seeds))
	bn, err := NewBatch(BatchConfig{
		Grid: g, Algorithm: alg, Workloads: wls, Seeds: seeds, MsgLen: 8, CCLimit: 2,
		RouteDelay: routeDelay, InjectionPorts: ports,
		OnDeliver: func(r int, m *message.Message) {
			events[r] = append(events[r], fmt.Sprintf("d %d %d %d %d", m.ID, m.Src, m.Dst, m.Latency()))
		},
		OnHeaderHop: func(r int, m *message.Message, node, dim int, dir topology.Dir) {
			events[r] = append(events[r], fmt.Sprintf("h %d %d %d %v", m.ID, node, dim, dir))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	half := cycles / 2
	run := func(cycles int64) {
		for i := int64(0); i < cycles; i++ {
			if faults := bn.Step(); faults != nil {
				t.Fatalf("unexpected watchdog fault: %+v", faults)
			}
		}
	}
	run(half)
	for r, seed := range seeds {
		bn.ResetWindow(r)
		bn.Reseed(r, seed+0x9e3779b97f4a7c15)
	}
	run(cycles - half)
	prints := make([]string, len(seeds))
	for r := range seeds {
		prints[r] = fmt.Sprintf("%+v\n%+v\n%v\n%v\n%v", bn.Window(r), bn.Total(r), bn.ChannelFlitCounts(r), bn.WormStatesOf(r), strings.Join(events[r], "\n"))
	}
	return prints
}

// TestBatchScalarBitIdentity: every replica of a batch run is bit-identical
// to a scalar run of the same config and seed, across all algorithms and
// the certification grid shapes.
func TestBatchScalarBitIdentity(t *testing.T) {
	seeds := []uint64{11, 7, 23}
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
				got := batchFingerprints(t, g, alg, 0.02, 0, 0, seeds, cycles)
				for r, seed := range seeds {
					want := scalarFingerprint(t, g, alg, 0.02, 0, 0, seed, cycles)
					if got[r] != want {
						t.Errorf("replica %d (seed %d) diverged from scalar run", r, seed)
					}
				}
			})
		}
	}
}

// TestBatchObserverBitIdentity: the observer replica with telemetry and
// forensics attached matches a scalar run with the same instruments —
// identical counters, lifecycle trace and analyzer summary — and the
// instruments do not perturb the other replicas.
func TestBatchObserverBitIdentity(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, err := routing.Get("nbc")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{42, 43}
	scalarRun := func(seed uint64) (string, string, string) {
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, seed)
		tel := telemetry.New(telemetry.Options{Trace: true, TraceCap: 1 << 16}, g.ChannelSlots(), alg.NumVCs(g))
		fore := forensics.New(forensics.Options{SampleEvery: 16}, g.ChannelSlots())
		n, err := New(Config{
			Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: seed,
			Telemetry: tel, Forensics: fore,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(1500); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", n.Total()), telemetry.FormatEvents(tel.Events()), fmt.Sprintf("%+v", fore.Summary())
	}
	wantCnt, wantTrace, wantFore := scalarRun(seeds[0])
	wantPlain, _, _ := func() (string, string, string) {
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, seeds[1])
		n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: seeds[1]})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(1500); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", n.Total()), "", ""
	}()

	base := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, seeds[0])
	tel := telemetry.New(telemetry.Options{Trace: true, TraceCap: 1 << 16}, g.ChannelSlots(), alg.NumVCs(g))
	fore := forensics.New(forensics.Options{SampleEvery: 16}, g.ChannelSlots())
	bn, err := NewBatch(BatchConfig{
		Grid: g, Algorithm: alg,
		Workloads: []traffic.Workload{base.Replicate(seeds[0]), base.Replicate(seeds[1])},
		Seeds:     seeds, MsgLen: 16, CCLimit: 2,
		Telemetry: tel, Forensics: fore,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if faults := bn.Step(); faults != nil {
			t.Fatalf("unexpected fault: %+v", faults)
		}
	}
	if got := fmt.Sprintf("%+v", bn.Total(0)); got != wantCnt {
		t.Error("observer counters diverged from an instrumented scalar run")
	}
	if got := telemetry.FormatEvents(tel.Events()); got != wantTrace {
		t.Error("observer lifecycle trace diverged from an instrumented scalar run")
	}
	if got := fmt.Sprintf("%+v", fore.Summary()); got != wantFore {
		t.Error("observer forensics summary diverged from an instrumented scalar run")
	}
	if got := fmt.Sprintf("%+v", bn.Total(1)); got != wantPlain {
		t.Error("non-observer replica perturbed by the observer's instruments")
	}
}

// TestBatchReplicaDropout: deactivating a replica mid-run must not perturb
// the survivors — they stay bit-identical to a full-width batch (and so to
// their scalar runs).
func TestBatchReplicaDropout(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, err := routing.Get("phop")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{5, 6, 7, 8}
	build := func() *BatchNetwork {
		base := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, seeds[0])
		wls := make([]traffic.Workload, len(seeds))
		for r, seed := range seeds {
			wls[r] = base.Replicate(seed)
		}
		bn, err := NewBatch(BatchConfig{Grid: g, Algorithm: alg, Workloads: wls, Seeds: seeds, MsgLen: 16, CCLimit: 2})
		if err != nil {
			t.Fatal(err)
		}
		return bn
	}
	step := func(bn *BatchNetwork, cycles int) {
		for i := 0; i < cycles; i++ {
			if faults := bn.Step(); faults != nil {
				t.Fatalf("unexpected fault: %+v", faults)
			}
		}
	}
	full := build()
	step(full, 1600)

	drop := build()
	step(drop, 700)
	drop.Deactivate(1)
	if drop.IsLive(1) || drop.Live() != 3 {
		t.Fatalf("after Deactivate(1): IsLive=%v Live=%d", drop.IsLive(1), drop.Live())
	}
	drop.Deactivate(1) // idempotent
	step(drop, 900)
	for _, r := range []int{0, 2, 3} {
		if got, want := fmt.Sprintf("%+v", drop.Total(r)), fmt.Sprintf("%+v", full.Total(r)); got != want {
			t.Errorf("survivor %d diverged after replica 1 dropped out:\n got %s\nwant %s", r, got, want)
		}
	}
	if got := drop.Now(1); got != 700 {
		t.Errorf("deactivated replica advanced to cycle %d, want frozen at 700", got)
	}
	if got, want := fmt.Sprintf("%+v", drop.Window(1).Cycles), "700"; got != want {
		t.Errorf("deactivated replica window cycles = %s, want %s", got, want)
	}
}

// TestBatchSteadyStateZeroAlloc: once warmed up, a batch step allocates
// nothing for any routing algorithm, with the observer instrumented.
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	g := topology.NewTorus(8, 2)
	for _, algName := range []string{"ecube", "nlast", "2pn", "phop", "nhop", "nbc"} {
		alg, err := routing.Get(algName)
		if err != nil {
			t.Fatal(err)
		}
		seeds := []uint64{3, 5, 9, 17}
		base := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.03, seeds[0])
		wls := make([]traffic.Workload, len(seeds))
		for r, seed := range seeds {
			wls[r] = base.Replicate(seed)
		}
		fore := forensics.New(forensics.Options{SampleEvery: 16}, g.ChannelSlots())
		bn, err := NewBatch(BatchConfig{Grid: g, Algorithm: alg, Workloads: wls, Seeds: seeds, MsgLen: 16, CCLimit: 2, Forensics: fore})
		if err != nil {
			t.Fatal(err)
		}
		// Warm up past the transient so pools and scratch reach steady size.
		for i := 0; i < 3000; i++ {
			if faults := bn.Step(); faults != nil {
				t.Fatalf("%s: unexpected fault: %+v", algName, faults)
			}
		}
		avg := testing.AllocsPerRun(2000, func() {
			if faults := bn.Step(); faults != nil {
				t.Fatal(faults)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %.3f allocs per steady-state batch cycle, want 0", algName, avg)
		}
	}
}

// TestBatchWatchdogFault: a replica that wedges is reported as a fault with
// the scalar engine's diagnostics, and a healthy replica sharing the batch
// is unaffected.
func TestBatchWatchdogFault(t *testing.T) {
	g := topology.NewTorus(8, 1)
	var cycles []int64
	var arrs []traffic.Arrival
	for src := 0; src < 8; src++ {
		cycles = append(cycles, 0)
		arrs = append(arrs, traffic.Arrival{Src: src, Dst: (src + 2) % 8})
	}
	wedge := traffic.NewTrace(g, "cycle", cycles, arrs)
	quiet := traffic.NewBernoulli(g, traffic.NewUniform(g), 0, 2)
	bn, err := NewBatch(BatchConfig{
		Grid: g, Algorithm: cyclicAlg{}, Workloads: []traffic.Workload{wedge, quiet},
		Seeds: []uint64{1, 2}, MsgLen: 16, BufDepth: 1, WatchdogCycles: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fault *ReplicaFault
	for i := 0; i < 5000 && fault == nil; i++ {
		for _, f := range bn.Step() {
			f := f
			fault = &f
		}
	}
	if fault == nil {
		t.Fatal("wedged replica never faulted")
	}
	if fault.Replica != 0 {
		t.Errorf("fault on replica %d, want 0", fault.Replica)
	}
	if fault.Err == nil || fault.Err.InFlight == 0 || fault.Err.Detail == "" {
		t.Errorf("fault diagnostics incomplete: %+v", fault.Err)
	}
	bn.Deactivate(0)
	for i := 0; i < 100; i++ {
		if faults := bn.Step(); faults != nil {
			t.Fatalf("healthy replica faulted: %+v", faults)
		}
	}
	if bn.InFlight(1) != 0 {
		t.Errorf("idle replica has %d in flight", bn.InFlight(1))
	}
}
