package network

import (
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// checkInvariants scans the whole simulator state for structural
// violations. It runs inside the package so it can reach private state. It
// returns how many headers are parked, so a test can tell that it exercised
// parking.
func checkInvariants(t *testing.T, n *Network) int {
	t.Helper()
	// Every vc slot: counts consistent, buffers within depth.
	ownersByCh := make([]int32, len(n.owners))
	for ch := 0; ch < n.g.ChannelSlots(); ch++ {
		for class := 0; class < n.numVCs; class++ {
			id := int32(ch*n.numVCs + class)
			if n.vcMsg[id] == nil {
				if n.vcFlits[id] != 0 {
					t.Fatalf("free vc %d/%d holds %d flits", ch, class, n.vcFlits[id])
				}
				continue
			}
			ownersByCh[ch]++
			if n.vcFlits[id] < 0 || int(n.vcFlits[id]) > n.cfg.BufDepth {
				t.Fatalf("vc %d/%d flit count %d out of [0,%d]", ch, class, n.vcFlits[id], n.cfg.BufDepth)
			}
			if n.vcRecvd[id]-n.vcSent[id] != n.vcFlits[id] {
				t.Fatalf("vc %d/%d recvd %d - sent %d != flits %d", ch, class, n.vcRecvd[id], n.vcSent[id], n.vcFlits[id])
			}
			if int(n.vcRecvd[id]) > n.vcMsg[id].Len {
				t.Fatalf("vc %d/%d received %d flits of a %d-flit worm", ch, class, n.vcRecvd[id], n.vcMsg[id].Len)
			}
			ai := n.vcAIdx[id]
			if ai < 0 || int(ai) >= len(n.active) || n.active[ai] != id {
				t.Fatalf("vc %d/%d active index broken", ch, class)
			}
		}
	}
	// Owner counters agree with actual ownership.
	for ch, want := range ownersByCh {
		if n.owners[ch] != want {
			t.Fatalf("channel %d owner count %d, actual %d", ch, n.owners[ch], want)
		}
	}
	// The channel tables agree with the grid's per-call answers.
	for ch := 0; ch < n.g.ChannelSlots(); ch++ {
		up, dim, dir := n.g.ChannelInfo(ch)
		if int(n.tbl.up[ch]) != up || int(n.tbl.dim[ch]) != dim || topology.Dir(n.tbl.dir[ch]) != dir {
			t.Fatalf("channel %d table decodes (%d,%d,%d), grid says (%d,%d,%d)",
				ch, n.tbl.up[ch], n.tbl.dim[ch], n.tbl.dir[ch], up, dim, dir)
		}
		if int(n.tbl.down[ch]) != n.g.Neighbor(up, dim, dir) {
			t.Fatalf("channel %d down table %d, grid says %d", ch, n.tbl.down[ch], n.g.Neighbor(up, dim, dir))
		}
	}
	// Active list has no strays.
	for i, id := range n.active {
		if n.vcMsg[id] == nil {
			t.Fatalf("active[%d] has no message", i)
		}
		if int(n.vcAIdx[id]) != i {
			t.Fatalf("active[%d] claims index %d", i, n.vcAIdx[id])
		}
	}
	// Injection free list holds only dead injection slots.
	for _, id := range n.injFree {
		if id < n.chanVCs {
			t.Fatalf("channel vc %d on the injection free list", id)
		}
		if n.vcMsg[id] != nil {
			t.Fatalf("free injection slot %d still holds a message", id)
		}
	}
	// Injection-port counters never exceed the cap.
	if n.cfg.InjectionPorts > 0 {
		for node, c := range n.injecting {
			if c < 0 || int(c) > n.cfg.InjectionPorts {
				t.Fatalf("node %d injecting %d (cap %d)", node, c, n.cfg.InjectionPorts)
			}
		}
	}
	return checkScanBookkeeping(t, n)
}

// checkScanBookkeeping validates the state that lets allocate and transfer
// skip slots: the pending and transfer position bitsets and the per-node
// parked-header lists. It returns how many headers are parked.
func checkScanBookkeeping(t *testing.T, n *Network) int {
	t.Helper()
	bit := func(set []uint64, pos int) bool { return set[pos>>6]>>(uint(pos)&63)&1 != 0 }
	// No mark at or beyond the end of the active list.
	for pos := len(n.active); pos < len(n.hdrBits)*64; pos++ {
		if bit(n.hdrBits, pos) || bit(n.xferBits, pos) {
			t.Fatalf("mark set at position %d, active list holds %d", pos, len(n.active))
		}
	}
	// Parked lists: each entry sits at its own node, once, and really cannot
	// be routed — every admissible candidate is taken, or (injection slots)
	// every port is busy.
	parkedAt := make(map[int32]bool)
	for node := range n.parkHead {
		for id := n.parkHead[node]; id >= 0; id = n.parkNext[id] {
			if parkedAt[id] {
				t.Fatalf("vc %d parked twice", id)
			}
			parkedAt[id] = true
			if n.vcAIdx[id] < 0 || int(n.vcNode[id]) != node {
				t.Fatalf("vc %d (node %d, active index %d) on node %d's parked list", id, n.vcNode[id], n.vcAIdx[id], node)
			}
			if ports := n.cfg.InjectionPorts; ports > 0 && n.vcCh[id] == -1 && int(n.injecting[node]) >= ports {
				continue
			}
			m := n.vcMsg[id]
			if m.Dst == node {
				t.Fatalf("vc %d parked at its destination %d", id, node)
			}
			for _, c := range n.alg.Candidates(n.g, m, node, nil) {
				ch := n.g.ChannelIndex(node, c.Dim, c.Dir)
				if n.tbl.down[ch] >= 0 && n.vcMsg[ch*n.numVCs+c.VC] == nil {
					t.Fatalf("vc %d parked at node %d although candidate channel %d class %d is free", id, node, ch, c.VC)
				}
			}
		}
	}
	if (n.tel != nil || n.fore != nil) && len(parkedAt) > 0 {
		t.Fatalf("%d headers parked with an observer attached", len(parkedAt))
	}
	for pos, id := range n.active {
		out := n.vcOut[id]
		// An arrived, unrouted header is pending or parked, never both; no
		// other slot is either.
		header := out.ch == outNone && (n.vcCh[id] == -1 || n.vcRecvd[id] > 0)
		pending, parked := bit(n.hdrBits, pos), parkedAt[id]
		if header != (pending || parked) || pending && parked {
			t.Fatalf("active[%d] = vc %d: header %v, pending %v, parked %v", pos, id, header, pending, parked)
		}
		// The transfer mark is exactly "routed and holding flits" (ejecting
		// injection slots never drain).
		work := out.ch != outNone && n.vcFlits[id] > 0 && (out.ch != outEject || n.vcCh[id] != -1)
		if bit(n.xferBits, pos) != work {
			t.Fatalf("active[%d] = vc %d: transfer mark %v, out %+v with %d flits", pos, id, !work, out, n.vcFlits[id])
		}
	}
	return len(parkedAt)
}

// TestScanBookkeepingAtSaturation steps saturated networks — where most
// headers are blocked, parked and woken over and over — and validates the
// full state every cycle, for all six algorithms and the knobs that change
// what blocks a header.
func TestScanBookkeepingAtSaturation(t *testing.T) {
	g := topology.NewTorus(8, 2)
	type knobs struct {
		name                    string
		alg                     string
		bufDepth, delay, ports  int
		observed, wantNoParking bool
	}
	cases := []knobs{{name: "vct", alg: "nbc", bufDepth: 8}, {name: "routedelay3", alg: "2pn", delay: 3},
		{name: "ports1", alg: "nhop", ports: 1}, {name: "observed", alg: "nbc", observed: true, wantNoParking: true}}
	for _, alg := range routing.All() {
		cases = append(cases, knobs{name: alg.Name(), alg: alg.Name()})
	}
	for _, kn := range cases {
		t.Run(kn.name, func(t *testing.T) {
			alg, err := routing.Get(kn.alg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Grid: g, Algorithm: alg, Workload: traffic.NewBernoulli(g, traffic.NewUniform(g), 0.1, 5),
				MsgLen: 8, BufDepth: kn.bufDepth, CCLimit: 2, RouteDelay: kn.delay, InjectionPorts: kn.ports, Seed: 5,
			}
			if kn.observed {
				cfg.Telemetry = telemetry.New(telemetry.Options{}, g.ChannelSlots(), alg.NumVCs(g))
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			maxParked := 0
			for i := 0; i < 1000; i++ {
				if err := n.Step(); err != nil {
					t.Fatal(err)
				}
				maxParked = max(maxParked, checkInvariants(t, n))
			}
			if !kn.wantNoParking && maxParked == 0 {
				t.Fatal("no header was ever parked: the run does not exercise park/wake")
			}
		})
	}
}

// TestStateInvariantsUnderLoad steps loaded networks and validates the full
// state every cycle, for a representative algorithm mix.
func TestStateInvariantsUnderLoad(t *testing.T) {
	for _, algName := range []string{"ecube", "nlast", "2pn", "nbc", "phop"} {
		g := topology.NewTorus(6, 2)
		alg, _ := routing.Get(algName)
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.04, 3)
		n, err := New(Config{
			Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8,
			CCLimit: 2, InjectionPorts: 2, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1500; i++ {
			if err := n.Step(); err != nil {
				t.Fatalf("%s: %v", algName, err)
			}
			checkInvariants(t, n)
		}
	}
}

// TestStateInvariantsOnMesh repeats the scan on a mesh, where boundary
// channel slots must stay untouched.
func TestStateInvariantsOnMesh(t *testing.T) {
	g := topology.NewMesh(5, 2)
	alg, _ := routing.Get("nlast")
	wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.04, 9)
	n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8, CCLimit: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, n)
		// Boundary slots never owned.
		for ch := 0; ch < g.ChannelSlots(); ch++ {
			id, dim, dir := g.ChannelInfo(ch)
			if g.HasChannel(id, dim, dir) {
				continue
			}
			for class := 0; class < n.numVCs; class++ {
				if n.vcMsg[ch*n.numVCs+class] != nil {
					t.Fatalf("boundary channel %d owned", ch)
				}
			}
		}
	}
}

// TestArbitrationFairness: two saturating streams share the same physical
// channels on different virtual channels; the rotating arbiter must give
// each a comparable share of deliveries.
func TestArbitrationFairness(t *testing.T) {
	g := topology.NewTorus(16, 2)
	alg, _ := routing.Get("phop")
	// Two sources on row 0 continuously send worms through the shared +x
	// channels of that row; phop gives them distinct VC classes at each
	// shared link (their hop counts differ by one), so they time-multiplex
	// the physical channels rather than queue behind one another.
	var cycles []int64
	var arrs []traffic.Arrival
	src0 := g.ID([]int{0, 0})
	src1 := g.ID([]int{1, 0})
	dst := g.ID([]int{7, 0})
	for i := 0; i < 60; i++ {
		cycles = append(cycles, int64(i*36), int64(i*36))
		arrs = append(arrs,
			traffic.Arrival{Src: src0, Dst: dst},
			traffic.Arrival{Src: src1, Dst: dst})
	}
	wl := traffic.NewTrace(g, "pair", cycles, arrs)
	counts := map[int]int{}
	n, err := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 1,
		OnDeliver: func(m *message.Message) { counts[m.Src]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(wl.LastCycle() + 1); err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(50000); err != nil {
		t.Fatal(err)
	}
	if counts[src0] != 60 || counts[src1] != 60 {
		t.Fatalf("deliveries per source: %v, want 60 each", counts)
	}
	// Fairness shows up as comparable mean latency for the two streams
	// rather than one stream monopolizing the channel; re-run measuring it.
	var sum [2]int64
	wl.Reseed(0)
	n2, _ := New(Config{
		Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, Seed: 1,
		OnDeliver: func(m *message.Message) {
			if m.Src == src0 {
				sum[0] += m.Latency()
			} else {
				sum[1] += m.Latency()
			}
		},
	})
	if err := n2.Run(wl.LastCycle() + 1); err != nil {
		t.Fatal(err)
	}
	if err := n2.Drain(50000); err != nil {
		t.Fatal(err)
	}
	mean0 := float64(sum[0]) / 60
	mean1 := float64(sum[1]) / 60
	ratio := mean0 / mean1
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("stream latencies %0.1f vs %0.1f: arbiter looks unfair", mean0, mean1)
	}
}
