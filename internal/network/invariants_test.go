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

// checkInvariants scans the whole simulator state for structural
// violations and unbalanced ledgers. It runs inside the package so it can
// reach private state. It returns how many headers are parked and how many
// slots are credit-parked, so a test can tell that it exercised both.
func checkInvariants(t *testing.T, n *Network) (parked, credParked int) {
	t.Helper()
	return checkInvariantsAfter(t, n, 0)
}

// checkInvariantsAfter is checkInvariants for an engine whose private pool
// held foreign messages, of another dimensionality than the current grid's,
// when the run began (see ledgerError).
func checkInvariantsAfter(t *testing.T, n *Network, foreign int) (parked, credParked int) {
	t.Helper()
	if err := ledgerError(n, foreign); err != nil {
		t.Fatal(err)
	}
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

// ledgerError balances the engine's conserved quantities against the slot
// state and returns the first one that does not balance: messages in flight,
// the generated/admitted/dropped counters, congestion-control credits and the
// message pool. A step that forgets a decrement, a Release or a Put shows up
// here on the cycle it happens, whichever path it took.
//
// foreign is how many messages of another dimensionality the engine's private
// pool held when the run began, zero unless the engine was recycled from a
// grid of another n. Pool.Get discards every one of them on the run's first
// arrival, and nothing else may leave the pool's books.
func ledgerError(n *Network, foreign int) error {
	// Messages in flight: the distinct worms the slots hold, each with exactly
	// one slot where its header is or is due (unrouted or ejecting), and what
	// the lifetime counters say went in and has not come out.
	live := make(map[*message.Message]int)
	classes := max(n.numVCs, 2*n.nDims)
	resident := make([]int, n.g.Nodes()*classes)
	for id, m := range n.vcMsg {
		if m == nil {
			continue
		}
		if n.vcAIdx[id] < 0 {
			return fmt.Errorf("vc %d holds message %d but is not on the active list", id, m.ID)
		}
		heads := 0
		if n.vcOut[id].ch < 0 {
			heads = 1
		}
		live[m] += heads
		if int32(id) >= n.chanVCs {
			// An injection slot holds its congestion credit until its tail has
			// left (applyMove).
			if m.Class < 0 || m.Class >= classes {
				return fmt.Errorf("message %d has class %d, outside [0,%d)", m.ID, m.Class, classes)
			}
			resident[int(n.vcNode[id])*classes+m.Class]++
		}
	}
	for m, heads := range live {
		if heads != 1 {
			return fmt.Errorf("message %d has %d head slots, want 1", m.ID, heads)
		}
	}
	total := n.Total()
	if n.inFlight != len(live) || int64(n.inFlight) != total.Admitted-total.Delivered {
		return fmt.Errorf("inFlight %d, slots hold %d distinct messages, admitted %d - delivered %d",
			n.inFlight, len(live), total.Admitted, total.Delivered)
	}
	for _, c := range []Counters{n.window, total} {
		if c.Generated != c.Admitted+c.Dropped {
			return fmt.Errorf("generated %d != admitted %d + dropped %d", c.Generated, c.Admitted, c.Dropped)
		}
	}
	// Congestion credits: the limiter's residents are the live injection slots.
	if n.limiter != nil {
		for i, want := range resident {
			if got := n.limiter.Resident(i/classes, i%classes); got != want {
				return fmt.Errorf("limiter holds %d credits of class %d at node %d, %d injection slots there",
					got, i%classes, i/classes, want)
			}
		}
	}
	// Message pool: every message the pool ever created is in flight or on
	// the free list, never both.
	gets, reuses := n.pool.Stats()
	lost := int(gets-reuses) - len(live) - n.pool.Len()
	if total.Generated == 0 {
		foreign = 0
	}
	switch {
	case lost < foreign:
		return fmt.Errorf("pool: %d messages are both in flight and free, or free twice", foreign-lost)
	case lost > foreign:
		return fmt.Errorf("pool: %d messages are neither in flight nor free", lost-foreign)
	}
	return nil
}

// checkScanBookkeeping validates the state that lets allocate and transfer
// skip slots: the pending and transfer position bitsets, the per-node
// parked-header lists and the credit waits. It returns how many headers are
// parked and how many slots are credit-parked (routed and holding flits, but
// off the transfer scan).
func checkScanBookkeeping(t *testing.T, n *Network) (parked, credParked int) {
	t.Helper()
	// No mark at or beyond the end of the active list.
	for pos := len(n.active); pos < len(n.hdrBits)*64; pos++ {
		if bit(n.hdrBits, pos) || bit(n.xferBits, pos) {
			t.Fatalf("mark set at position %d, active list holds %d", pos, len(n.active))
		}
	}
	// Parked lists: each entry sits at its own node, once, and really cannot
	// be routed — every admissible candidate is taken, or (injection slots)
	// every port is busy. Its message carries the blocked-cycle stamp: -1 for
	// a header that bids for nothing because the node's injection ports are
	// all taken (when it was parked, or since), else the last cycle charged to
	// the observers, an executed one.
	observed := n.tel != nil || n.fore != nil
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
			m := n.vcMsg[id]
			ports := n.cfg.InjectionPorts
			portsFull := ports > 0 && id >= n.chanVCs && int(n.injecting[node]) >= ports
			switch stamp := m.BlockedSince; {
			case stamp == -1 && !portsFull:
				t.Fatalf("vc %d parked at node %d without a blocked-cycle stamp, and not for want of a port", id, node)
			case stamp < -1 || stamp >= n.now:
				t.Fatalf("vc %d parked with blocked-cycle stamp %d at cycle %d", id, stamp, n.now)
			case stamp >= 0 && observed && portsFull:
				t.Fatalf("injection slot %d at node %d still runs up blocked cycles (stamp %d) with every port taken", id, node, stamp)
			}
			if portsFull {
				continue
			}
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
	for pos, id := range n.active {
		out := n.vcOut[id]
		// An arrived, unrouted header is pending or parked, never both; no
		// other slot is either.
		header := out.ch == outNone && (id >= n.chanVCs || n.vcRecvd[id] > 0)
		pending, parked := bit(n.hdrBits, pos), parkedAt[id]
		if header != (pending || parked) || pending && parked {
			t.Fatalf("active[%d] = vc %d: header %v, pending %v, parked %v", pos, id, header, pending, parked)
		}
		// A marked slot is routed and holds flits (ejecting injection slots
		// never drain). Such a slot left unmarked is credit-parked: it is the
		// recorded wait of its downstream buffer, which is full and not
		// ejecting. The converse does not hold: a parked slot that just
		// received a flit is marked again, and parks again on its next visit.
		work := out.ch != outNone && n.vcFlits[id] > 0 && (out.ch != outEject || id < n.chanVCs)
		marked := bit(n.xferBits, pos)
		if marked && !work {
			t.Fatalf("active[%d] = vc %d: transfer mark set, out %+v with %d flits", pos, id, out, n.vcFlits[id])
		}
		if work && !marked {
			if out.ch < 0 || n.credWait[out.ch*int32(n.numVCs)+int32(out.vc)] != id {
				t.Fatalf("active[%d] = vc %d: routed (out %+v) with %d flits, unmarked, and not waiting for a credit", pos, id, out, n.vcFlits[id])
			}
			credParked++
		}
	}
	// Every credit wait names a live slot routed to that buffer and holding
	// flits, and the buffer really is full and not ejecting.
	for tb, s := range n.credWait {
		if s < 0 {
			continue
		}
		if int32(tb) >= n.chanVCs {
			t.Fatalf("injection slot %d has a credit wait (vc %d)", tb, s)
		}
		out := n.vcOut[s]
		if n.vcMsg[s] == nil || n.vcAIdx[s] < 0 || out.ch < 0 || out.ch*int32(n.numVCs)+int32(out.vc) != int32(tb) || n.vcFlits[s] == 0 {
			t.Fatalf("vc %d waits for a credit from buffer %d but is not a live slot routed there holding flits (out %+v, %d flits)", s, tb, out, n.vcFlits[s])
		}
		if int(n.vcFlits[tb]) < n.cfg.BufDepth || n.vcOut[tb].ch == outEject {
			t.Fatalf("vc %d waits for a credit from buffer %d, which holds %d of %d flits with out %+v", s, tb, n.vcFlits[tb], n.cfg.BufDepth, n.vcOut[tb])
		}
	}
	return len(parkedAt), credParked
}

// bit reports whether active position pos is set in a mark bitset.
func bit(set []uint64, pos int) bool { return set[pos>>6]>>(uint(pos)&63)&1 != 0 }

// blockedLedger reads the two sides of the lazy blocked-cycle account off the
// slot state after a Step: how many headers bid in the cycle just executed and
// lost (lostBid: every arrived, unrouted header past its router delay — valid
// without a port budget, where every such header bids), and how many blocked
// cycles the parked headers have run up that no observer has been charged for
// yet (debt).
func blockedLedger(n *Network) (lostBid, debt int64) {
	last := n.now - 1
	for _, id := range n.active {
		if n.vcOut[id].ch == outNone && (id >= n.chanVCs || n.vcRecvd[id] > 0) && n.vcReady[id] <= last {
			lostBid++
		}
	}
	for _, head := range n.parkHead {
		for id := head; id >= 0; id = n.parkNext[id] {
			if stamp := n.vcMsg[id].BlockedSince; stamp >= 0 {
				debt += last - stamp
			}
		}
	}
	return lostBid, debt
}

// TestScanBookkeepingAtSaturation steps saturated networks — where most
// headers are blocked, parked and woken over and over — and validates the
// full state every cycle, for all six algorithms and the knobs that change
// what blocks a header. With observers attached headers park all the same and
// are charged their blocked cycles when woken: what telemetry has counted
// plus what the parked headers still owe must equal, every cycle, the failed
// bids counted off the slot state, and reading the summaries through
// Observers must clear the debt.
func TestScanBookkeepingAtSaturation(t *testing.T) {
	g := topology.NewTorus(8, 2)
	type knobs struct {
		name                   string
		alg                    string
		bufDepth, delay, ports int
		telemetry, forensics   bool
	}
	cases := []knobs{{name: "vct", alg: "nbc", bufDepth: 8}, {name: "routedelay3", alg: "2pn", delay: 3},
		{name: "ports1", alg: "nhop", ports: 1}, {name: "observed", alg: "nbc", telemetry: true},
		{name: "observed-forensics-rd2", alg: "2pn", delay: 2, telemetry: true, forensics: true},
		{name: "observed-ports1", alg: "nhop", ports: 1, telemetry: true, forensics: true},
		{name: "forensics-only", alg: "ecube", forensics: true}}
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
			if kn.telemetry {
				cfg.Telemetry = &telemetry.Options{}
			}
			if kn.forensics {
				cfg.Forensics = &forensics.Options{SampleEvery: 16}
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			maxParked, maxCredParked := 0, 0
			var owed, maxDebt int64
			for i := 0; i < 1000; i++ {
				if err := n.Step(); err != nil {
					t.Fatal(err)
				}
				parked, credParked := checkInvariants(t, n)
				maxParked, maxCredParked = max(maxParked, parked), max(maxCredParked, credParked)
				lostBid, debt := blockedLedger(n)
				owed += lostBid
				maxDebt = max(maxDebt, debt)
				if kn.telemetry && kn.ports == 0 {
					// What the collector has been charged so far, unsettled.
					if charged := n.tel.Summary(0, 0, nil).TotalHeadBlocked(); charged+debt != owed {
						t.Fatalf("cycle %d: telemetry counts %d head-blocked cycles and parked headers owe %d more, but %d bids have failed",
							n.now-1, charged, debt, owed)
					}
				}
				if i%97 == 96 {
					n.Observers()
					checkInvariants(t, n)
					if _, debt := blockedLedger(n); debt != 0 && (kn.telemetry || kn.forensics) {
						t.Fatalf("cycle %d: parked headers owe %d blocked cycles after Observers", n.now-1, debt)
					}
				}
			}
			if maxParked == 0 {
				t.Fatal("no header was ever parked: the run does not exercise park/wake")
			}
			if kn.bufDepth < cfg.MsgLen && maxCredParked == 0 {
				t.Fatal("no slot was ever credit-parked: the run does not exercise the credit wait")
			}
			if (kn.telemetry || kn.forensics) && maxDebt == 0 {
				t.Fatal("no parked header ever owed a blocked cycle: the run does not exercise lazy accounting")
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

// burstNetwork offers every node of an 8x8 torus one message a cycle for 150
// cycles — far past saturation, so congestion control drops most of them —
// and then nothing, so the network can run dry.
func burstNetwork(t *testing.T) (*Network, *traffic.Trace) {
	t.Helper()
	g := topology.NewTorus(8, 2)
	alg, err := routing.Get("nbc")
	if err != nil {
		t.Fatal(err)
	}
	var cycles []int64
	var arrs []traffic.Arrival
	for c := 0; c < 150; c++ {
		for src := 0; src < g.Nodes(); src++ {
			cycles = append(cycles, int64(c))
			arrs = append(arrs, traffic.Arrival{Src: src, Dst: (src + 1 + (7*src+3*c)%(g.Nodes()-1)) % g.Nodes()})
		}
	}
	wl := traffic.NewTrace(g, "burst", cycles, arrs)
	n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8, CCLimit: 2, InjectionPorts: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return n, wl
}

// TestLedgersBalanceThroughDrain follows the ledgers from an empty network
// through saturation and back to empty, with a window boundary on the way:
// once the last worm is delivered every message the pool ever created is on
// its free list again and no congestion credit is outstanding.
func TestLedgersBalanceThroughDrain(t *testing.T) {
	n, wl := burstNetwork(t)
	for n.Now() <= wl.LastCycle() || n.InFlight() > 0 {
		if n.Now() > 5000 {
			t.Fatalf("%d messages still in flight at cycle %d", n.InFlight(), n.Now())
		}
		if n.Now() == 100 {
			n.ResetWindow()
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, n)
	}
	total := n.Total()
	if total.Dropped == 0 || total.Delivered == 0 || total.Delivered != total.Admitted {
		t.Fatalf("run does not exercise drops and deliveries: %+v", total)
	}
	gets, reuses := n.pool.Stats()
	if reuses == 0 || int64(n.pool.Len()) != gets-reuses {
		t.Errorf("pool created %d messages (%d reuses), %d are back after the drain", gets-reuses, reuses, n.pool.Len())
	}
	if len(n.active) != 0 || len(n.injFree) != len(n.vcMsg)-int(n.chanVCs) {
		t.Errorf("drained network keeps %d live slots, %d of %d injection slots free",
			len(n.active), len(n.injFree), len(n.vcMsg)-int(n.chanVCs))
	}
}

// TestLedgerChecksFire breaks each ledger the way a faulty step would — the
// state a skipped decrement, Release or Put leaves behind — and requires
// ledgerError to name it: a check that cannot fail guards nothing.
func TestLedgerChecksFire(t *testing.T) {
	n, _ := burstNetwork(t)
	if err := n.Run(120); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, n)
	var inj int32 = -1 // a live injection slot
	for _, id := range n.active {
		if id >= n.chanVCs {
			inj = id
		}
	}
	if inj < 0 || n.pool.Len() == 0 {
		t.Fatalf("need a live injection slot and a free message: slot %d, %d free", inj, n.pool.Len())
	}
	node, m := int(n.vcNode[inj]), n.vcMsg[inj]
	// Somewhere a class is below its limit, so one more Admit goes through.
	spareNode, spareClass := -1, 0
	for i := 0; i < n.g.Nodes()*n.numVCs && spareNode < 0; i++ {
		if n.limiter.Resident(i/n.numVCs, i%n.numVCs) < n.limiter.Limit() {
			spareNode, spareClass = i/n.numVCs, i%n.numVCs
		}
	}
	if spareNode < 0 {
		t.Fatal("every class at every node is at its congestion limit")
	}
	var taken *message.Message
	for _, c := range []struct {
		name            string
		corrupt, repair func()
		want            string
	}{
		{"deliver without inFlight--", func() { n.inFlight++ }, func() { n.inFlight-- }, "distinct messages"},
		{"deliver without Delivered++", func() { n.window.Delivered-- }, func() { n.window.Delivered++ }, "distinct messages"},
		{"drop without Dropped++", func() { n.window.Dropped-- }, func() { n.window.Dropped++ }, "generated"},
		{"tail leaves the source without Release", func() { n.limiter.Admit(spareNode, spareClass) }, func() { n.limiter.Release(spareNode, spareClass) }, "limiter holds"},
		{"Release without a tail leaving", func() { n.limiter.Release(node, m.Class) }, func() { n.limiter.Admit(node, m.Class) }, "limiter holds"},
		{"deliver without Put", func() { taken = n.pool.Get(n.g, 0, 0, 1, 8, 0, nil) }, func() { n.pool.Put(taken) }, "neither in flight nor free"},
		// Last: there is no taking a live message back off the free list intact.
		{"Put of a worm still in flight", func() { n.pool.Put(m) }, func() {}, "both in flight and free"},
	} {
		c.corrupt()
		if err := ledgerError(n, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ledgerError = %v, want one mentioning %q", c.name, err, c.want)
		}
		c.repair()
		if c.want != "both in flight and free" {
			if err := ledgerError(n, 0); err != nil {
				t.Fatalf("%s: repaired state still fails: %v", c.name, err)
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
