// Package network is the flit-level discrete-event simulator at the heart
// of the reproduction: wormhole-switched k-ary n-cubes and meshes with
// virtual channels time-multiplexed on unidirectional physical channels,
// header-driven virtual-channel allocation, credit-based flit flow control,
// injection-side congestion control and a deadlock watchdog.
//
// # Model
//
// Every physical channel carries one flit per cycle (the paper's ft = 1) and
// hosts V virtual channels, each with a small flit buffer at its receiving
// node. A message (worm) advances as a pipeline: its header allocates one
// virtual channel per hop, chosen by the routing algorithm among the
// admissible candidates that are currently free; body flits follow the
// header's path; the tail releases each virtual channel as it passes.
// Blocked worms hold their channels, which is precisely what distinguishes
// wormhole from virtual cut-through: with BufDepth >= message length a
// blocked worm instead fits entirely in one node's buffer and frees its
// upstream channels, so the same engine simulates the paper's sec. 3.4
// virtual cut-through experiment.
//
// Flits of one message are indistinguishable and FIFO, so buffers track
// counts rather than flit objects: each virtual channel records how many
// flits it currently buffers and how many it has received and forwarded in
// total. The header is "present" when one flit has been received and none
// forwarded; the tail "passes" when the forwarded count reaches the message
// length.
//
// The simulator is cycle-driven with a two-phase transfer step (decide all
// moves from start-of-cycle state, then apply), which makes a cycle
// equivalent to the event-driven simulation of the paper at ft = 1 while
// staying deterministic for a given seed.
//
// # Data layout
//
// Virtual-channel state lives in parallel struct-of-arrays slices indexed by
// a dense vc id (ch*numVCs+class for channel buffers, ids past that for
// injection slots, whose capacity Reset reserves up front), and the
// per-channel topology facts the cycle path needs (endpoints, direction,
// reverse channel, Advance inputs) are precomputed into flat tables at
// construction (see tables.go). The live vc ids sit on a dense active list
// with swap-removal. The steady-state cycle allocates nothing: messages come
// from a free-list pool, arbitration and rendering use reusable scratch
// buffers, and every closure the hot path calls is created once per engine.
//
// # Hot path
//
// The figures sweep offered load far past saturation, where most live slots
// hold a blocked worm, so neither per-cycle phase walks the active list.
// Results depend on two visiting orders — allocation goes through the
// headers in active-list order from a start position drawn every cycle, the
// transfer scan collects requesters in active-list order with
// swap-and-revisit on delivery — so both phases iterate bitsets over
// active-list positions, which reproduces those orders with the idle slots
// left out; removeActive moves a swapped slot's bits along with it.
//
// Allocation visits the pending headers (hdrBits): arrived, unrouted, not
// parked. A header whose attempt fails, or whose node has no free injection
// port, is parked on an intrusive per-node list and costs nothing until a
// virtual channel on a channel out of that node, or an injection port there,
// is released (applyMove's tail release, deliver), which puts the node's
// parked headers back on hdrBits for the next cycle. This is exact: during
// allocation virtual channels are only claimed, a blocked header's message
// state and candidate set cannot change, and a failed attempt draws no
// random number, so a parked header that no release has touched would fail
// again with no side effect.
//
// Telemetry and forensics count every blocked header every cycle, and a
// parked header is counted lazily: park stamps the message with the last
// cycle charged (message.BlockedSince) and whoever takes it off the list
// charges the cycles since in one step (settle) — HeadBlockedN for telemetry,
// HeadStalls for the latency anatomy. Three things keep that identical to
// counting every cycle. On a cycle forensics samples, every node is woken
// before allocation, so the wait-for edges are captured by real failed bids in
// the usual order. The engine builds both observers itself and hands out
// their summaries only through Observers, which first charges every parked
// header up to the last executed cycle (settleBlocked), as the watchdog does
// before it writes a deadlock report, so no reader sees a count short of
// what the parked headers owe. And under an InjectionPorts budget a header in
// its injection slot stops bidding, and being counted, once other headers'
// first hops have taken every port of its node: the grant that takes the last
// one closes the account of those parked there (portsFilled), down to whether
// this cycle's rotation would have reached them before the winner.
//
// Transfer visits the slots marked in xferBits: routed and holding flits,
// the only ones that can drain or request a channel, less those waiting for
// a credit. A slot whose visit finds its downstream buffer t full and not
// ejecting is credit-parked (unmarked, and named by credWait[t]: t has one
// upstream slot) until one of the two events that give t a credit back
// re-marks it: applyMove sends one of t's flits on, or route turns t to
// ejection. This too is exact: until then the credit test would have skipped
// the slot, so every requester list, rotation pointer and winner is unchanged.
//
// These shortcuts are checked against the engine that took none of them:
// TestEnginePins replays 1,122 configurations whose digests the full-scan
// engine generated (every unrouted header retried, every live slot swept,
// each cycle), TestScanBookkeepingAtSaturation audits the bitsets, parking
// lists and credit waits against the slot state they summarise, and the four
// benchmark digests pin whole figures.
//
// # One engine, recycled
//
// This is the only flit-level engine: every point, replica and figure runs on
// it, one independent run at a time. A Network is built once and re-used:
// Reset re-initialises it for its next run, re-using its arrays, bitsets,
// channel tables and message pool, and leaves it indistinguishable from a new
// one. core.Run keeps idle engines in one pool and hands each run one of them
// (DESIGN.md §6).
package network

import (
	"fmt"
	"math/bits"

	"wormsim/internal/congestion"
	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// Config describes one simulated network.
type Config struct {
	// Grid is the topology (required).
	Grid *topology.Grid
	// Algorithm is the wormhole routing algorithm (required).
	Algorithm routing.Algorithm
	// Policy selects among free candidate output virtual channels; nil means
	// routing.RandomPolicy.
	Policy routing.SelectionPolicy
	// Workload generates arrivals (required).
	Workload traffic.Workload
	// MsgLen is the message length in flits (paper: 16).
	MsgLen int
	// BufDepth is the per-virtual-channel flit buffer depth. The default 2
	// lets an unblocked worm sustain one flit per cycle per channel;
	// >= MsgLen yields virtual cut-through behaviour.
	BufDepth int
	// CCLimit is the congestion-control per-class message limit at each
	// source (0 disables congestion control).
	CCLimit int
	// InjectionPorts caps how many messages per node may be actively
	// injecting (holding a first-hop virtual channel) at once; queued
	// messages wait their turn. 0 means unlimited.
	InjectionPorts int
	// Seed drives direction tie-breaking and adaptive selection.
	Seed uint64
	// RouteDelay models router pipeline latency: a header that arrives at a
	// node waits this many cycles before it may bid for an output virtual
	// channel. 0 (the default, the paper's idealization) routes in the
	// arrival cycle. The paper's discussion notes adaptive routing logic
	// "could increase the node delay per hop" — this knob quantifies that
	// claim (bench A-RTD).
	RouteDelay int
	// HalfDuplex couples each pair of opposite channels into one
	// bidirectional link carrying one flit per cycle in total — the channel
	// model of Song's study that the paper's footnote 5 compares against
	// ("the use of two unidirectional channels ... results in lower
	// throughputs"). Utilization should then be normalized by half the
	// channel count (see EffectiveChannels).
	HalfDuplex bool
	// WatchdogCycles is how long the network may go without any flit
	// movement while messages are in flight before Step reports a deadlock
	// (default 20000; < 0 disables).
	WatchdogCycles int64
	// OnDeliver, if set, is called for every delivered message with the
	// delivery cycle already recorded. The *message.Message is recycled
	// after the callback returns: copy what you need, do not retain the
	// pointer across cycles.
	OnDeliver func(*message.Message)
	// OnHeaderHop, if set, is called whenever a header flit completes a hop
	// into the given node over (dim, dir) — a flight recorder for path
	// verification and visualization. Like OnDeliver, m is engine-owned and
	// valid only for the duration of the callback: copy what you need, do
	// not retain the pointer.
	OnHeaderHop func(m *message.Message, node int, dim int, dir topology.Dir)
	// Telemetry, if set, attaches a collector with these options for
	// per-cycle metrics and sampled worm lifecycle events; read it through
	// Observers and Trace. nil disables collection at near-zero cost: every
	// hook is a nil check.
	Telemetry *telemetry.Options
	// Phases, if set, attributes wall-clock time to the engine's pipeline
	// stages (inject, route, eject, transfer, watchdog) — the self-profiling
	// feed behind the CLIs' -phaseprof flag and the observatory's
	// wormsim_phase_seconds_total metric. Like Telemetry, nil costs one
	// branch per hook and an attached profiler never alters results.
	Phases *telemetry.PhaseProfiler
	// Forensics, if set, attaches an analyzer with these options for sampled
	// wait-for graph captures and per-worm latency anatomy; read it through
	// Observers. Like Telemetry, nil costs one branch per hook, the analyzer
	// consumes no random draws, and an attached analyzer is bit-identical to
	// a detached one.
	Forensics *forensics.Options
}

// outRoute is the output allocation of a routed header: the output physical
// channel (outEject for ejection at the destination, outNone while the
// header is unrouted), the virtual channel on it, and the decoded direction
// of travel. "Unrouted" is folded into the channel field, so there is no
// separate routed flag to keep in step.
type outRoute struct {
	ch  int32
	vc  int16
	dim int8
	dir int8
}

const (
	// outEject marks a routed header consuming at its destination.
	outEject = -1
	// outNone marks an unallocated output (header not yet routed).
	outNone = -2
)

// Counters is a snapshot of a measurement window.
type Counters struct {
	// Cycles covered by the window.
	Cycles int64
	// FlitMoves counts flit transfers across physical channels.
	FlitMoves int64
	// Generated, Admitted, Dropped and Delivered count messages.
	Generated int64
	Admitted  int64
	Dropped   int64
	Delivered int64
	// FlitMovesByClass breaks FlitMoves down by virtual-channel class, the
	// paper's virtual-channel load-balance observable.
	FlitMovesByClass []int64
}

// Utilization returns achieved normalized throughput: flit moves per cycle
// per physical channel (eq. (3) of the paper).
func (c Counters) Utilization(channels int) float64 {
	if c.Cycles == 0 || channels == 0 {
		return 0
	}
	return float64(c.FlitMoves) / (float64(c.Cycles) * float64(channels))
}

// Network is a running simulation. Create with New, or recycle one between
// runs with Reset; advance with Step or Run.
type Network struct {
	cfg    Config
	g      *topology.Grid
	alg    routing.Algorithm
	policy routing.SelectionPolicy
	wl     traffic.Workload
	numVCs int
	nDims  int
	// msgLen mirrors cfg.MsgLen: every message has this length, so the
	// tail-passed tests compare against it without loading the message.
	msgLen  int32
	limiter *congestion.Limiter
	rt      *rng.Stream
	tel     *telemetry.Collector
	prof    *telemetry.PhaseTimer
	fore    *forensics.Analyzer
	// foreSampling caches StartCycle's verdict for the current cycle so the
	// allocation loop tests a bool instead of re-deriving the sample phase.
	foreSampling bool
	// allocStart is the active position this cycle's allocation started from.
	allocStart int32
	// pool is the message free list, kept across Reset so later runs start
	// warm. Pooling never changes results: recycled messages are
	// reinitialized through the same code path message.New uses, consuming
	// identical RNG draws (see message.Pool).
	pool *message.Pool
	// tieFn is the half-ring tie-break passed to the message pool — a method
	// value bound once here so inject closes over nothing per call.
	tieFn func(int) bool

	now        int64
	nextMsgID  int64
	inFlight   int
	lastMotion int64

	// tbl holds the per-channel topology tables (tables.go).
	tbl chanTable

	// Virtual-channel state, struct-of-arrays: index ch*numVCs+class is the
	// input buffer of that virtual channel at the channel's downstream node;
	// indices >= chanVCs are injection slots, recycled through injFree. The
	// id alone says which: a channel buffer's channel and class are id /
	// numVCs and id % numVCs. vcNode is where a buffer's flits reside (the
	// downstream node, or the source node for an injection slot); vcFlits
	// counts currently buffered flits while vcRecvd/vcSent are lifetime
	// totals (an injection slot starts with vcFlits = message length); vcOut
	// is the assigned output (ch == outNone while the header is unrouted);
	// vcReady is the earliest cycle a header may bid for an output (arrival +
	// RouteDelay); vcAIdx is the slot's position in active for swap-removal;
	// parkNext links the slot into its node's parked-header list; credWait[t]
	// is the slot parked until buffer t returns a credit, or -1.
	chanVCs  int32
	vcMsg    []*message.Message
	vcNode   []int32
	vcFlits  []int32
	vcRecvd  []int32
	vcSent   []int32
	vcOut    []outRoute
	vcReady  []int64
	vcAIdx   []int32
	parkNext []int32
	credWait []int32

	// active lists every live vc id (owned buffers and injection slots);
	// injFree is the free list of injection-slot ids.
	active  []int32
	injFree []int32

	// The two per-cycle scans visit only slots that can make progress. Both
	// sets are bitsets over active-list positions (not vc ids), because the
	// position order is what results depend on: bits at or beyond
	// len(active) are always zero and removeActive carries the swapped
	// slot's bits with it.
	//
	// hdrBits marks the pending headers: arrived, unrouted and not parked —
	// the only slots allocate visits. xferBits marks the slots transfer can
	// do something for: routed and holding flits (for an ejecting slot,
	// in-network buffers only), less those credit-parked on a full
	// downstream buffer (credWait).
	hdrBits  []uint64
	xferBits []uint64
	// parkHead[node] heads the intrusive list (through parkNext, -1
	// terminated) of headers at node whose last allocation attempt failed or
	// found every injection port busy. A parked header is off hdrBits until a
	// virtual channel on a channel out of node, or an injection port at
	// node, is released (wake). The blocked cycles a parked header owes the
	// observers are on its message (BlockedSince), not in a per-slot array.
	parkHead []int32

	// Per-channel round-robin pointer and owner count (congestion score).
	rr     []uint32
	owners []int32
	// flitsByChannel counts lifetime flit transfers per physical channel
	// slot, for load-balance analysis.
	flitsByChannel []int64
	// injecting counts actively injecting messages per node (InjectionPorts
	// enforcement).
	injecting []int32

	// Scratch, reused across cycles.
	arrivals   []traffic.Arrival
	cands      []routing.Candidate
	freeCands  []routing.Candidate
	freeScores []int
	moves      []int32
	reqs       [][]int32
	touched    []int32
	// Half-duplex arbitration scratch: generation-stamped per-channel marks
	// replace the per-cycle maps a naive implementation would build. A slot
	// is valid only when its generation equals revGen, so clearing is one
	// counter increment.
	revGen     uint32
	chMoverGen []uint32
	chDropGen  []uint32
	// Worm-state rendering scratch (snapshot.go).
	wormRefs []wormRef
	wormSort wormRefSort

	// window holds the live counters; base accumulates closed windows.
	// Lifetime totals are base+window, materialized in Total, so the hot
	// path increments each counter once instead of twice.
	window Counters
	base   Counters
}

// New validates cfg and builds the network.
func New(cfg Config) (*Network, error) {
	n := new(Network)
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset validates cfg and re-initialises n for it, discarding whatever run n
// held before. It is the only initialisation path — New is Reset on a zero
// Network — and the state it leaves is the one a fresh engine starts from:
// every slice has the length and contents New gives it, every counter and
// the clock are zero, the random stream is fresh. A run on a recycled engine
// is therefore bit-identical to the same run on a new one (TestEnginePins
// threads its configurations through one engine to hold that).
//
// What recycling saves is allocation: a slice is re-used whenever its
// capacity covers what cfg needs (consecutive configurations may differ in
// grid, virtual-channel count and buffer depth, so capacity is compared,
// never assumed), the channel tables are kept while the grid shape is
// unchanged, and the message pool carries its free list over. The observers
// Config asks for are built new for every run. On error n is left as it was.
// A Network must not be Reset while a Step is running.
func (n *Network) Reset(cfg Config) error {
	if cfg.Grid == nil || cfg.Algorithm == nil || cfg.Workload == nil {
		return fmt.Errorf("network: Grid, Algorithm and Workload are required")
	}
	if err := cfg.Algorithm.Compatible(cfg.Grid); err != nil {
		return err
	}
	if cfg.MsgLen <= 0 {
		cfg.MsgLen = 16
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 2
	}
	if cfg.BufDepth < 1 {
		return fmt.Errorf("network: BufDepth %d must be >= 1", cfg.BufDepth)
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 20000
	}
	if cfg.Policy == nil {
		cfg.Policy = routing.RandomPolicy{}
	}
	g := cfg.Grid
	numVCs := cfg.Algorithm.NumVCs(g)
	slots, nodes := g.ChannelSlots(), g.Nodes()
	var tel *telemetry.Collector
	if cfg.Telemetry != nil {
		tel = telemetry.New(*cfg.Telemetry, numVCs)
	}
	var fore *forensics.Analyzer
	if cfg.Forensics != nil {
		fore = forensics.New(*cfg.Forensics, slots)
	}
	size := slots * numVCs
	// Injection slots are appended past the channel buffers (newInjSlot).
	// Reserve their room now: growing ten arrays sized exactly chanVCs by
	// append would recopy all of them mid-run. Congestion control admits at
	// most CCLimit messages per class and node, and a message class is a
	// virtual-channel class (hop schemes) or a first-hop direction (the
	// rest). Whatever exceeds the estimate, or runs without congestion
	// control, still grows by append.
	room := size
	if cfg.CCLimit > 0 {
		room += nodes * cfg.CCLimit * max(numVCs, 2*g.N())
	}
	old := *n
	if old.pool != nil {
		// Worms the last run left in flight go back to the free list. Several
		// slots hold each one; exactly one of them — the slot with the header,
		// or waiting for it — is unrouted or ejecting.
		for _, id := range old.active {
			if old.vcOut[id].ch < 0 {
				old.pool.Put(old.vcMsg[id])
			}
		}
	}
	*n = Network{
		cfg:     cfg,
		g:       g,
		alg:     cfg.Algorithm,
		policy:  cfg.Policy,
		wl:      cfg.Workload,
		numVCs:  numVCs,
		nDims:   g.N(),
		msgLen:  int32(cfg.MsgLen),
		limiter: old.limiter.Recycle(nodes, cfg.CCLimit),
		rt:      rng.NewStream(cfg.Seed, 0x90f7),
		tel:     tel,
		prof:    cfg.Phases.Timer(),
		fore:    fore,
		pool:    old.pool,
		tieFn:   old.tieFn,
		tbl:     old.tbl,
		chanVCs: int32(size),

		vcMsg:    recycle(old.vcMsg, size, room),
		vcNode:   recycle(old.vcNode, size, room),
		vcFlits:  recycle(old.vcFlits, size, room),
		vcRecvd:  recycle(old.vcRecvd, size, room),
		vcSent:   recycle(old.vcSent, size, room),
		vcOut:    recycle(old.vcOut, size, room),
		vcReady:  recycle(old.vcReady, size, room),
		vcAIdx:   recycle(old.vcAIdx, size, room),
		parkNext: recycle(old.parkNext, size, room),
		credWait: recycle(old.credWait, size, room),
		active:   recycle(old.active, 0, room),
		injFree:  old.injFree[:0],
		hdrBits:  recycle(old.hdrBits, room>>6+1, room>>6+1),
		xferBits: recycle(old.xferBits, room>>6+1, room>>6+1),
		parkHead: recycle(old.parkHead, nodes, nodes),

		rr:             recycle(old.rr, slots, slots),
		owners:         recycle(old.owners, slots, slots),
		flitsByChannel: recycle(old.flitsByChannel, slots, slots),
		injecting:      recycle(old.injecting, nodes, nodes),
		chMoverGen:     recycle(old.chMoverGen, slots, slots),
		chDropGen:      recycle(old.chDropGen, slots, slots),

		arrivals:   old.arrivals[:0],
		cands:      old.cands[:0],
		freeCands:  old.freeCands[:0],
		freeScores: old.freeScores[:0],
		moves:      old.moves[:0],
		touched:    old.touched[:0],
		wormRefs:   old.wormRefs[:0],

		window: Counters{FlitMovesByClass: recycle(old.window.FlitMovesByClass, numVCs, numVCs)},
		base:   Counters{FlitMovesByClass: recycle(old.base.FlitMovesByClass, numVCs, numVCs)},
	}
	if n.pool == nil {
		n.pool = message.NewPool()
	}
	if n.tieFn == nil {
		n.tieFn = n.tieBreak
	}
	if !n.tbl.builtFor(g) {
		n.tbl = buildChanTable(g)
	}
	// The per-channel requester lists keep their backing arrays, emptied.
	if cap(old.reqs) >= slots {
		n.reqs = old.reqs[:slots]
		for ch := range n.reqs {
			n.reqs[ch] = n.reqs[ch][:0]
		}
	} else {
		n.reqs = make([][]int32, slots)
	}
	for node := range n.parkHead {
		n.parkHead[node] = -1
	}
	for ch := 0; ch < slots; ch++ {
		for class := 0; class < numVCs; class++ {
			id := ch*numVCs + class
			// -1 on mesh boundaries; such slots stay unused.
			n.vcNode[id] = n.tbl.down[ch]
			n.vcAIdx[id] = -1
			n.vcOut[id] = outRoute{ch: outNone}
			n.credWait[id] = -1
		}
	}
	return nil
}

// recycle returns a zeroed slice of the given length on s's backing array
// when that holds at least capacity elements, and a new one otherwise.
func recycle[T any](s []T, length, capacity int) []T {
	if cap(s) < capacity {
		return make([]T, length, capacity)
	}
	s = s[:length]
	clear(s)
	return s
}

// tieBreak resolves half-ring direction ties at injection; bound as a method
// value (tieFn) so the hot path never allocates a closure for it.
func (n *Network) tieBreak(int) bool { return n.rt.Bernoulli(0.5) }

// Grid returns the topology.
func (n *Network) Grid() *topology.Grid { return n.g }

// NumVCs returns the virtual channels per physical channel in use.
func (n *Network) NumVCs() int { return n.numVCs }

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// InFlight returns the number of admitted messages not yet delivered.
func (n *Network) InFlight() int { return n.inFlight }

// Window returns the counters accumulated since the last ResetWindow.
func (n *Network) Window() Counters {
	w := n.window
	w.FlitMovesByClass = append([]int64(nil), n.window.FlitMovesByClass...)
	return w
}

// Total returns the counters accumulated since construction: the closed
// windows plus the live one.
func (n *Network) Total() Counters {
	t := n.base
	t.Cycles += n.window.Cycles
	t.FlitMoves += n.window.FlitMoves
	t.Generated += n.window.Generated
	t.Admitted += n.window.Admitted
	t.Dropped += n.window.Dropped
	t.Delivered += n.window.Delivered
	t.FlitMovesByClass = append([]int64(nil), n.base.FlitMovesByClass...)
	for i, v := range n.window.FlitMovesByClass {
		t.FlitMovesByClass[i] += v
	}
	return t
}

// ResetWindow folds the window counters into the lifetime base and zeroes
// them (e.g. at a sampling-period boundary).
func (n *Network) ResetWindow() {
	n.base.Cycles += n.window.Cycles
	n.base.FlitMoves += n.window.FlitMoves
	n.base.Generated += n.window.Generated
	n.base.Admitted += n.window.Admitted
	n.base.Dropped += n.window.Dropped
	n.base.Delivered += n.window.Delivered
	for i, v := range n.window.FlitMovesByClass {
		n.base.FlitMovesByClass[i] += v
		n.window.FlitMovesByClass[i] = 0
	}
	byClass := n.window.FlitMovesByClass
	n.window = Counters{FlitMovesByClass: byClass}
}

// Reseed hands fresh random streams to the workload and the router's
// tie-breaking, per the paper's sampling methodology.
func (n *Network) Reseed(seed uint64) {
	n.wl.Reseed(seed)
	n.rt = rng.NewStream(seed, 0x90f7)
}

// DeadlockError reports that the watchdog saw no flit motion for its window
// while messages were in flight.
type DeadlockError struct {
	Cycle    int64
	InFlight int
	Detail   string
	// Blame is the forensics stall report (dominant congestion-tree root
	// and wait-for cycle witness) when an analyzer was attached — also the
	// first lines of Detail.
	Blame string
	// Trace holds the most recent lifecycle events when telemetry tracing
	// was enabled — the flight recorder of the cycles leading into the
	// stall (also rendered into Detail).
	Trace []telemetry.Event
}

// Error describes the deadlock.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("network: no flit motion for %d cycles with %d messages in flight (possible deadlock)\n%s",
		e.Cycle, e.InFlight, e.Detail)
}

// Step advances the simulation one cycle: arrivals, virtual-channel
// allocation, ejection of flits that arrived in earlier cycles, then
// channel arbitration and flit transfer. Ejecting before transferring makes
// consumption take one cycle, so an unloaded message's latency is exactly
// eq. (2)'s (ml + d - 1) cycles.
func (n *Network) Step() error {
	if n.prof != nil {
		n.prof.Begin()
	}
	if n.fore != nil {
		n.foreSampling = n.fore.StartCycle(n.now)
	}
	n.inject()
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseInject)
	}
	if n.fore != nil && n.foreSampling {
		// A sampled cycle captures a wait-for edge from every blocked header,
		// so all of them bid: parked ones too, settled up to last cycle.
		for node := range n.parkHead {
			n.wake(int32(node), n.now-1)
		}
	}
	n.allocate()
	if n.fore != nil && n.foreSampling {
		// Resolve within the cycle, while the captured slot ids are live.
		n.fore.Resolve(n.now)
	}
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseRoute)
	}
	moved := n.transfer()
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseTransfer)
	}
	if moved {
		n.lastMotion = n.now
	}
	n.now++
	n.window.Cycles++
	if n.tel != nil {
		n.tel.EndCycle()
	}
	if n.cfg.WatchdogCycles > 0 && n.inFlight > 0 && n.now-n.lastMotion > n.cfg.WatchdogCycles {
		n.settleBlocked()
		err := &DeadlockError{Cycle: n.now - n.lastMotion, InFlight: n.inFlight, Detail: n.describeStuck(8)}
		if n.fore != nil {
			// Lead with causality: the blame root and any wait-for cycle
			// witness come before the raw stuck-worm dump.
			if blame := n.fore.StallReport(); blame != "" {
				err.Blame = blame
				err.Detail = blame + err.Detail
			}
		}
		if n.tel != nil && n.tel.Tracing() {
			for i, w := range n.WormStates() {
				if i >= 8 {
					break
				}
				n.tel.Kill(n.now, w.ID, w.HeadNode)
			}
			err.Trace = n.tel.Events(0, 32)
			err.Detail += "last trace events:\n" + telemetry.FormatEvents(err.Trace)
		}
		if n.prof != nil {
			n.prof.Mark(telemetry.PhaseWatchdog)
		}
		return err
	}
	if n.prof != nil {
		n.prof.Mark(telemetry.PhaseWatchdog)
	}
	return nil
}

// Run advances the simulation the given number of cycles.
func (n *Network) Run(cycles int64) error {
	for i := int64(0); i < cycles; i++ {
		if err := n.Step(); err != nil {
			return err
		}
	}
	return nil
}

// inject generates this cycle's arrivals and admits them through congestion
// control onto injection slots.
func (n *Network) inject() {
	n.arrivals = n.wl.Arrivals(n.now, n.arrivals[:0])
	for _, a := range n.arrivals {
		n.window.Generated++
		m := n.pool.Get(n.g, n.nextMsgID, a.Src, a.Dst, n.cfg.MsgLen, n.now, n.tieFn)
		n.nextMsgID++
		n.alg.Init(n.g, m)
		if !n.limiter.Admit(a.Src, m.Class) {
			n.window.Dropped++
			if n.tel != nil {
				n.tel.Drop(n.now, m.ID, a.Src, a.Dst)
			}
			n.pool.Put(m)
			continue
		}
		n.window.Admitted++
		n.inFlight++
		id := n.newInjSlot()
		n.vcMsg[id] = m
		n.vcNode[id] = int32(a.Src)
		n.vcFlits[id] = int32(m.Len)
		n.vcRecvd[id] = 0
		n.vcSent[id] = 0
		n.vcOut[id] = outRoute{ch: outNone}
		n.vcReady[id] = 0
		n.addActive(id)
		n.setPending(n.vcAIdx[id])
		if n.tel != nil {
			n.tel.Inject(n.now, m.ID, a.Src, a.Dst)
			n.tel.InjEnqueue()
		}
	}
}

// newInjSlot returns a free injection-slot id, growing the state arrays when
// the free list is empty. Slot count stabilizes at the run's peak concurrent
// injections, after which inject allocates nothing.
func (n *Network) newInjSlot() int32 {
	if k := len(n.injFree); k > 0 {
		id := n.injFree[k-1]
		n.injFree = n.injFree[:k-1]
		return id
	}
	id := int32(len(n.vcMsg))
	n.vcMsg = append(n.vcMsg, nil)
	n.vcNode = append(n.vcNode, 0)
	n.vcFlits = append(n.vcFlits, 0)
	n.vcRecvd = append(n.vcRecvd, 0)
	n.vcSent = append(n.vcSent, 0)
	n.vcOut = append(n.vcOut, outRoute{ch: outNone})
	n.vcReady = append(n.vcReady, 0)
	n.vcAIdx = append(n.vcAIdx, -1)
	n.parkNext = append(n.parkNext, -1)
	n.credWait = append(n.credWait, -1)
	return id
}

// addActive appends the vc id to the active list.
func (n *Network) addActive(id int32) {
	pos := len(n.active)
	n.vcAIdx[id] = int32(pos)
	n.active = append(n.active, id)
	if pos>>6 == len(n.hdrBits) {
		n.hdrBits = append(n.hdrBits, 0)
		n.xferBits = append(n.xferBits, 0)
	}
}

// removeActive swap-removes the vc id from the active list. By now id itself
// carries no marks — an unrouted header never leaves the list, and a slot is
// released only once it is empty — so the slot swapped into its position just
// brings its own marks along, which leaves the vacated last position clear.
func (n *Network) removeActive(id int32) {
	last := int32(len(n.active) - 1)
	i := n.vcAIdx[id]
	moved := n.active[last]
	n.active[i] = moved
	n.vcAIdx[moved] = i
	n.active = n.active[:last]
	n.vcAIdx[id] = -1
	w, mask := last>>6, uint64(1)<<(uint(last)&63)
	if n.hdrBits[w]&mask != 0 {
		n.hdrBits[w] &^= mask
		n.setPending(i)
	}
	if n.xferBits[w]&mask != 0 {
		n.xferBits[w] &^= mask
		n.setWork(i)
	}
}

// The mark primitives: pos is an active-list position.
func (n *Network) setPending(pos int32)   { n.hdrBits[pos>>6] |= 1 << (uint(pos) & 63) }
func (n *Network) clearPending(pos int32) { n.hdrBits[pos>>6] &^= 1 << (uint(pos) & 63) }
func (n *Network) setWork(pos int32)      { n.xferBits[pos>>6] |= 1 << (uint(pos) & 63) }
func (n *Network) clearWork(pos int32)    { n.xferBits[pos>>6] &^= 1 << (uint(pos) & 63) }

// park takes the blocked header in vc id (at active position pos) out of the
// pending set until wake(node) puts it back. charged is the last cycle whose
// failed bid the observers have been told of, -1 for a header that is not
// bidding (no injection port) and so runs up nothing while parked.
func (n *Network) park(id, pos int32, charged int64) {
	n.clearPending(pos)
	n.vcMsg[id].BlockedSince = charged
	node := n.vcNode[id]
	n.parkNext[id] = n.parkHead[node]
	n.parkHead[node] = id
}

// wake returns every header parked at node to the pending set, charged for
// the failed bids it sat out up to and including cycle through: a virtual
// channel on a channel out of node, or an injection port there, was just
// released, so their next attempt may succeed. Releases happen only in the
// transfer phase, so woken headers bid in the next cycle's allocate, in
// active-position order like everyone else.
func (n *Network) wake(node int32, through int64) {
	observed := n.tel != nil || n.fore != nil
	for id := n.parkHead[node]; id >= 0; id = n.parkNext[id] {
		n.setPending(n.vcAIdx[id])
		if observed {
			n.settle(id, through)
		}
	}
	n.parkHead[node] = -1
}

// settle charges the parked header in vc id the bids it would have lost in
// the cycles after its stamp up to and including through — what tryRoute does
// cycle by cycle for a header that is not parked — and moves the stamp up.
func (n *Network) settle(id int32, through int64) {
	m := n.vcMsg[id]
	k := through - m.BlockedSince
	if m.BlockedSince < 0 || k <= 0 {
		return
	}
	m.BlockedSince = through
	if n.tel != nil {
		n.tel.HeadBlockedN(m.Class, k)
	}
	if n.fore != nil && id < n.chanVCs {
		m.HeadStalls += int32(k)
	}
}

// portsFilled closes the blocked-cycle account of the headers parked in
// injection slots at node: the grant to the header at active position by took
// the node's last injection port, so from here on they would not bid. Those
// that this cycle's allocation visits before by would have bid once more.
func (n *Network) portsFilled(node, by int32) {
	for id := n.parkHead[node]; id >= 0; id = n.parkNext[id] {
		if id < n.chanVCs {
			continue
		}
		through := n.now - 1
		if n.visitRank(n.vcAIdx[id]) < n.visitRank(by) {
			through = n.now
		}
		n.settle(id, through)
		n.vcMsg[id].BlockedSince = -1
	}
}

// visitRank orders active positions as this cycle's allocation visits them:
// from allocStart up, then those below it (the list only grows during
// allocation, past every position it visits).
func (n *Network) visitRank(pos int32) int32 {
	if pos < n.allocStart {
		pos += int32(len(n.active))
	}
	return pos
}

// settleBlocked brings the observers' blocked-cycle counts up to the last
// executed cycle by charging every parked header what it owes: Observers and
// the watchdog call it before anything reads the counts. It changes nothing
// else, and nothing at all on an unobserved network.
func (n *Network) settleBlocked() {
	if n.tel != nil || n.fore != nil {
		for _, head := range n.parkHead {
			for id := head; id >= 0; id = n.parkNext[id] {
				n.settle(id, n.now-1)
			}
		}
	}
}

// Observers returns the summaries of the telemetry collector and forensics
// analyzer the Config attached, nil for one it did not. Both count every
// cycle executed so far, parked headers included, and are copies owned by
// the caller.
func (n *Network) Observers() (*telemetry.Summary, *forensics.Summary) {
	n.settleBlocked()
	var tel *telemetry.Summary
	if n.tel != nil {
		tel = n.tel.Summary(n.now, n.base.Dropped+n.window.Dropped, n.flitsByChannel)
	}
	var fore *forensics.Summary
	if n.fore != nil {
		fore = n.fore.Summary()
	}
	return tel, fore
}

// Trace returns the lifecycle events the collector retains that were
// recorded at or after cursor since (0 for all), oldest first and only the
// limit most recent when limit > 0, with the cursor to continue from. It
// returns nil, 0 when no tracing collector is attached.
func (n *Network) Trace(since int64, limit int) ([]telemetry.Event, int64) {
	return n.tel.Events(since, limit), n.tel.Recorded()
}

// allocate routes headers: every pending header tries to acquire an output
// virtual channel, in active-list order from a start position rotated each
// cycle so no node gets a standing priority in virtual-channel contention.
// The rotation draw is part of the RNG sequence and is consumed whether or
// not anything is pending. Nothing is removed from the active list during
// allocation (route only appends the claimed downstream slots past count,
// and those hold no header yet), so positions are stable across both legs.
func (n *Network) allocate() {
	count := len(n.active)
	if count == 0 {
		return
	}
	start := n.rt.Intn(count)
	n.allocStart = int32(start)
	n.allocateRange(start, count)
	n.allocateRange(0, start)
}

// allocateRange visits the pending headers at active positions [lo, hi) in
// increasing order.
func (n *Network) allocateRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	for w := first; w <= last; w++ {
		word := n.hdrBits[w]
		if w == first {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if w == last && hi&63 != 0 {
			word &= 1<<(uint(hi)&63) - 1
		}
		for ; word != 0; word &= word - 1 {
			n.tryRoute(int32(w<<6 | bits.TrailingZeros64(word)))
		}
	}
}

// tryRoute applies the per-header gates (router pipeline readiness,
// injection-port budget) to the pending header at active position pos and
// bids for an output. A header still inside its router delay stays pending;
// one that is blocked is parked (see the package comment for why skipping
// its retries is exact, and how observers still count them).
func (n *Network) tryRoute(pos int32) {
	id := n.active[pos]
	if n.now < n.vcReady[id] {
		return
	}
	// All injection ports busy: no bid, nothing to count until one frees up.
	charged := int64(-1)
	ports := n.cfg.InjectionPorts
	if ports <= 0 || id < n.chanVCs || int(n.injecting[n.vcNode[id]]) < ports {
		if n.route(id) {
			n.clearPending(pos)
			return
		}
		m := n.vcMsg[id]
		if n.tel != nil {
			n.tel.HeadBlocked(m.Class)
		}
		if n.fore != nil {
			n.foreBlocked(id, m)
		}
		charged = n.now
	}
	n.park(id, pos, charged)
}

// route attempts virtual-channel allocation for the header in vc id and
// reports whether the header is routed afterwards.
func (n *Network) route(id int32) bool {
	m := n.vcMsg[id]
	node := int(n.vcNode[id])
	if m.Dst == node {
		n.vcOut[id] = outRoute{ch: outEject}
		if id < n.chanVCs {
			n.setWork(n.vcAIdx[id])
			n.creditReturned(id) // a full consuming buffer drains this cycle
		}
		return true
	}
	n.cands = n.alg.Candidates(n.g, m, node, n.cands[:0])
	n.freeCands = n.freeCands[:0]
	n.freeScores = n.freeScores[:0]
	for _, c := range n.cands {
		// Dense channel index, inlined (topology.Grid.ChannelIndex); the
		// down table doubles as the HasChannel test.
		ch := (node*n.nDims+c.Dim)*2 + int(c.Dir)
		if n.tbl.down[ch] < 0 {
			continue
		}
		if n.vcMsg[ch*n.numVCs+c.VC] != nil {
			continue
		}
		n.freeCands = append(n.freeCands, c)
		n.freeScores = append(n.freeScores, int(n.owners[ch]))
	}
	if len(n.freeCands) == 0 {
		return false
	}
	pick := n.policy.Select(n.freeCands, n.freeScores, n.rt)
	c := n.freeCands[pick]
	ch := (node*n.nDims+c.Dim)*2 + int(c.Dir)
	t := int32(ch*n.numVCs + c.VC)
	n.vcMsg[t] = m
	n.vcFlits[t], n.vcRecvd[t], n.vcSent[t] = 0, 0, 0
	n.vcReady[t] = 0
	n.vcOut[t] = outRoute{ch: outNone}
	n.owners[ch]++
	n.addActive(t)
	n.vcOut[id] = outRoute{ch: int32(ch), vc: int16(c.VC), dim: int8(c.Dim), dir: int8(c.Dir)}
	// A present header is a buffered flit, so the slot has work to transfer.
	n.setWork(n.vcAIdx[id])
	if id >= n.chanVCs {
		n.injecting[node]++
		m.FirstAlloc = n.now
		if int(n.injecting[node]) == n.cfg.InjectionPorts && (n.tel != nil || n.fore != nil) {
			n.portsFilled(int32(node), n.vcAIdx[id])
		}
	}
	n.alg.Allocated(n.g, m, node, c)
	if n.tel != nil {
		n.tel.VCAlloc(n.now, m.ID, node, ch, c.VC)
		n.tel.VCAcquired(c.VC)
	}
	return true
}

// transfer performs ejection, channel arbitration, and flit movement in one
// pass over the slots marked in xferBits — the routed slots that hold flits,
// less the credit-parked; an unrouted or empty slot can neither drain nor
// request a channel — in
// active-list order, two-phase: all arbitration decisions are made against
// start-of-cycle state, then applied. Ejection — the paper's node model
// consumes arriving flits without competing for network channels — is fused
// into the requester scan: draining a consuming buffer in scan order is
// equivalent to a separate prior ejection pass because (a) a removal's
// swap-and-revisit reproduces exactly the element order a post-ejection scan
// would have seen, and (b) a full downstream buffer that is consuming always
// drains this cycle, so the credit check treats it as empty. It reports
// whether any flit moved across a channel (ejection drains update lastMotion
// directly).
func (n *Network) transfer() bool {
	// Phase 1: drain consuming buffers and collect requesters per physical
	// channel.
	touched := n.touched[:0]
	bufDepth := int32(n.cfg.BufDepth)
	numVCs := int32(n.numVCs)
	vcOut, vcFlits, reqs, marks, credWait := n.vcOut, n.vcFlits, n.reqs, n.xferBits, n.credWait
	for w, words := 0, (len(n.active)+63)>>6; w < words; w++ {
		for word := marks[w]; word != 0; {
			b := uint(bits.TrailingZeros64(word))
			id := n.active[w<<6|int(b)]
			out := vcOut[id]
			if out.ch == outEject {
				n.vcSent[id] += vcFlits[id]
				vcFlits[id] = 0
				marks[w] &^= 1 << b
				n.lastMotion = n.now
				if n.vcSent[id] == n.msgLen {
					n.deliver(id)
					// The slot swapped into this position came with its mark
					// and must be visited too, and the last position (perhaps
					// in this word) is gone: re-read from bit b on.
					word = marks[w] >> b << b
					continue
				}
				word &= word - 1
				continue
			}
			word &= word - 1
			t := out.ch*numVCs + int32(out.vc)
			if vcFlits[t] >= bufDepth && vcOut[t].ch != outEject {
				// No credit downstream (full consuming buffers drain): park.
				marks[w] &^= 1 << b
				credWait[t] = id
				continue
			}
			if len(reqs[out.ch]) == 0 {
				touched = append(touched, out.ch)
			}
			reqs[out.ch] = append(reqs[out.ch], id)
		}
	}
	n.touched = touched
	// Phase 2: pick one winner per channel (rotating priority) and move its
	// flit. Uncontended channels — the common case — skip the rotation
	// modulo.
	n.moves = n.moves[:0]
	for _, ch := range n.touched {
		req := n.reqs[ch]
		winner := req[0]
		if len(req) > 1 {
			winner = req[int(n.rr[ch])%len(req)]
		}
		n.rr[ch]++
		n.moves = append(n.moves, winner)
		n.reqs[ch] = req[:0]
	}
	if n.cfg.HalfDuplex && len(n.moves) > 1 {
		n.moves = n.dropReverseConflicts(n.moves)
	}
	for _, id := range n.moves {
		n.applyMove(id)
	}
	return len(n.moves) > 0

}

// dropReverseConflicts enforces half-duplex links: when both directions of
// a link won arbitration this cycle, only one (alternating per link) keeps
// its grant. Conflict detection and the drop set use generation-stamped
// per-channel scratch (valid only when the stamp equals revGen), so the
// per-cycle cost is proportional to the number of winners, with no map or
// slice allocation.
func (n *Network) dropReverseConflicts(moves []int32) []int32 {
	n.revGen++
	gen := n.revGen
	for _, id := range moves {
		n.chMoverGen[n.vcOut[id].ch] = gen
	}
	dropped := 0
	for _, id := range moves {
		ch := n.vcOut[id].ch
		rev := n.tbl.rev[ch]
		if ch > rev {
			continue // each conflicting pair is handled from its lower side
		}
		if n.chMoverGen[rev] != gen {
			continue
		}
		// Alternate the winner per link across cycles.
		n.rr[ch]++
		if n.rr[ch]%2 == 0 {
			n.chDropGen[ch] = gen
		} else {
			n.chDropGen[rev] = gen
		}
		dropped++
	}
	if dropped == 0 {
		return moves
	}
	kept := moves[:0]
	for _, id := range moves {
		if n.chDropGen[n.vcOut[id].ch] != gen {
			kept = append(kept, id)
		}
	}
	return kept
}

// applyMove transfers one flit from vc id across its output channel.
func (n *Network) applyMove(id int32) {
	out := n.vcOut[id]
	ch := int(out.ch)
	t := int32(ch*n.numVCs + int(out.vc))
	n.vcFlits[id]--
	n.vcSent[id]++
	n.vcFlits[t]++
	n.vcRecvd[t]++
	n.creditReturned(id)
	if n.vcFlits[id] == 0 {
		n.clearWork(n.vcAIdx[id])
	}
	if n.vcOut[t].ch != outNone {
		n.setWork(n.vcAIdx[t])
	}
	n.window.FlitMoves++
	n.window.FlitMovesByClass[out.vc]++
	n.flitsByChannel[ch]++
	if n.vcRecvd[t] == 1 {
		// Header hop completed: update the message's routing state from the
		// upstream node's viewpoint (precomputed in the channel tables).
		m := n.vcMsg[id]
		dim, dir := int(out.dim), topology.Dir(out.dir)
		m.Advance(n.g, dim, dir, int(n.tbl.coord[ch]), int(n.tbl.parity[ch]))
		n.vcReady[t] = n.now + 1 + int64(n.cfg.RouteDelay)
		n.setPending(n.vcAIdx[t])
		if n.cfg.OnHeaderHop != nil {
			// Zero-copy handoff by contract: m is engine-owned and valid only
			// for the duration of the callback (see Config.OnHeaderHop).
			n.cfg.OnHeaderHop(m, int(n.vcNode[t]), dim, dir) // documented borrow, copying would allocate per hop
		}
		if n.tel != nil {
			n.tel.Hop(n.now, m.ID, int(n.vcNode[t]), ch, int(out.vc))
		}
	}
	if n.vcSent[id] == n.msgLen {
		// Tail has left this buffer: release it.
		if id >= n.chanVCs {
			n.limiter.Release(int(n.vcNode[id]), n.vcMsg[id].Class)
			n.injecting[n.vcNode[id]]--
			n.wake(n.vcNode[id], n.now)
			if n.tel != nil {
				n.tel.InjDequeue()
			}
			n.removeActive(id)
			n.vcMsg[id] = nil
			n.injFree = append(n.injFree, id)
		} else {
			n.releaseChannel(id)
		}
	}
}

// creditReturned puts the slot credit-parked on buffer t, if any, back on
// the transfer scan: t has just sent a flit on or turned to ejection.
func (n *Network) creditReturned(t int32) {
	if s := n.credWait[t]; s >= 0 {
		n.credWait[t] = -1
		n.setWork(n.vcAIdx[s])
	}
}

// releaseChannel frees channel buffer id, which its worm's tail has left,
// and wakes the headers parked where that channel starts.
func (n *Network) releaseChannel(id int32) {
	ch := id / int32(n.numVCs)
	n.owners[ch]--
	n.wake(n.tbl.up[ch], n.now)
	if n.tel != nil {
		n.tel.VCReleased(int(id) % n.numVCs)
	}
	n.removeActive(id)
	n.vcMsg[id] = nil
}

// deliver completes message consumption at vc id: the tail flit has been
// drained, so the buffer is released and the message recycled.
func (n *Network) deliver(id int32) {
	m := n.vcMsg[id]
	m.DeliverTime = n.now
	n.releaseChannel(id)
	n.inFlight--
	n.window.Delivered++
	if n.tel != nil {
		n.tel.Deliver(n.now, m.ID, m.Dst)
	}
	if n.fore != nil {
		// The drain component is the unloaded latency of eq. (2), ml + d - 1,
		// plus the router pipeline delay the header paid at each hop.
		ideal := int64(m.HopsTotal)*int64(1+n.cfg.RouteDelay) + int64(n.msgLen) - 1
		n.fore.Delivered(m.Class, m.HopsTotal, m.GenTime, m.FirstAlloc, m.DeliverTime, m.HeadStalls, ideal)
	}
	if n.cfg.OnDeliver != nil {
		// Zero-copy handoff by contract: m is pooled and valid only for the
		// duration of the callback (see Config.OnDeliver) — it is recycled on
		// the next line.
		n.cfg.OnDeliver(m) // documented borrow, copying would defeat the message pool
	}
	n.pool.Put(m)
}

// Drain runs until no messages are in flight or maxCycles pass; it reports
// an error on deadlock or if the deadline is hit with messages still
// in flight. The workload keeps injecting during a drain only if it still
// has arrivals (use a zero-rate or exhausted workload to quiesce).
func (n *Network) Drain(maxCycles int64) error {
	for i := int64(0); i < maxCycles; i++ {
		if n.inFlight == 0 {
			return nil
		}
		if err := n.Step(); err != nil {
			return err
		}
	}
	if n.inFlight > 0 {
		return fmt.Errorf("network: %d messages still in flight after %d drain cycles", n.inFlight, maxCycles)
	}
	return nil
}

// Limiter exposes the congestion limiter (nil when disabled).
func (n *Network) Limiter() *congestion.Limiter { return n.limiter }

// EffectiveChannels returns the channel count to normalize utilization by:
// the grid's unidirectional channel count, halved under half-duplex links.
func (n *Network) EffectiveChannels() int {
	if n.cfg.HalfDuplex {
		return n.g.NumChannels() / 2
	}
	return n.g.NumChannels()
}

// ChannelFlitCounts returns lifetime flit transfers per physical channel,
// indexed by the grid's dense channel index (mesh boundary slots stay 0).
func (n *Network) ChannelFlitCounts() []int64 {
	return append([]int64(nil), n.flitsByChannel...)
}

// OccupiedVCsByClass returns how many virtual channels of each class are
// currently owned by a worm.
func (n *Network) OccupiedVCsByClass() []int {
	counts := make([]int, n.numVCs)
	for _, id := range n.active {
		if id < n.chanVCs {
			counts[int(id)%n.numVCs]++
		}
	}
	return counts
}
