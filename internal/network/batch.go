package network

import (
	"fmt"

	"wormsim/internal/congestion"
	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// BatchConfig describes a batch of independent replicas of one simulated
// network: identical topology, algorithm and engine knobs, one workload and
// seed per replica. See NewBatch.
type BatchConfig struct {
	// Grid is the topology, shared by every replica (required).
	Grid *topology.Grid
	// Algorithm is the wormhole routing algorithm (required).
	Algorithm routing.Algorithm
	// Policy selects among free candidate output virtual channels; nil means
	// routing.RandomPolicy.
	Policy routing.SelectionPolicy
	// Workloads[r] generates replica r's arrivals (required, one per
	// replica). The workloads must be replicas of one process — same grid,
	// pattern and rate, differing only in seed (traffic.Bernoulli.Replicate);
	// Bernoulli workloads then draw their arrival trials through one
	// interleaved sweep per cycle (traffic.ArrivalsBatch).
	Workloads []traffic.Workload
	// Seeds[r] drives replica r's routing stream and tie-breaking, exactly
	// as Config.Seed does for a scalar network.
	Seeds []uint64

	// The engine knobs below have the same meaning and defaults as the
	// corresponding Config fields.
	MsgLen         int
	BufDepth       int
	CCLimit        int
	InjectionPorts int
	RouteDelay     int
	HalfDuplex     bool
	WatchdogCycles int64

	// Observer designates the replica (default 0) whose Telemetry and
	// Forensics hooks fire; the other replicas run bare. One observed
	// replica keeps the batch's steady state allocation-free while
	// preserving the scalar engine's observability contract — an attached
	// collector or analyzer never alters results, so the observer stays
	// bit-identical to its scalar run either way.
	Observer int
	// Telemetry, sized for this network, receives the observer replica's
	// per-cycle metrics and sampled lifecycle events (see Config.Telemetry).
	Telemetry *telemetry.Collector
	// Phases attributes wall time to the batch step's pipeline stages,
	// aggregated across replicas (see Config.Phases).
	Phases *telemetry.PhaseProfiler
	// Forensics receives the observer replica's sampled wait-for captures
	// and latency anatomy (see Config.Forensics).
	Forensics *forensics.Analyzer
	// OnDeliver and OnHeaderHop fire for every replica, with the replica
	// index prepended to the scalar signature. The *message.Message is
	// engine-owned and valid only for the duration of the callback.
	OnDeliver   func(replica int, m *message.Message)
	OnHeaderHop func(replica int, m *message.Message, node int, dim int, dir topology.Dir)
}

// ReplicaFault reports that one replica's deadlock watchdog fired during a
// Step. The replica keeps its terminal state until Deactivate is called; the
// other replicas are unaffected.
type ReplicaFault struct {
	Replica int
	Err     *DeadlockError
}

// vcHot packs the per-slot state the cycle path reads and writes together —
// output allocation, router-pipeline readiness, the holding node and the
// three flit counters — into one 32-byte record. As in the scalar engine a
// header is routed iff out.ch != outNone. The zero value is NOT an unrouted
// header — outRoute's zero ch is a real channel — so every slot activation
// must write out.ch = outNone explicitly.
type vcHot struct {
	out   outRoute
	ready int64
	flits int32
	recvd int32
	sent  int32
	node  int32
}

// batchReplica is one replica's private state: everything a scalar Network
// keeps, laid out by ACTIVE POSITION rather than by slot id. The slot-id
// space is mostly idle (a light-load replica occupies a few dozen of
// hundreds of channel VCs), so id-indexed arrays scatter the live records
// across a region far larger than the live set; here position i of the
// active list owns record hotA[i] and message msgA[i], records move with
// the list's swap-remove discipline, and aIdx maps a slot id back to its
// position (-1 when idle). The whole per-cycle working set is then a dense
// prefix proportional to the replica's actual load — the property that
// keeps a 16-wide batch cache-resident where 16 id-indexed copies would
// evict each other.
type batchReplica struct {
	idx     int
	wl      traffic.Workload
	bern    *traffic.Bernoulli
	rt      *rng.Stream
	limiter *congestion.Limiter
	pool    *message.Pool
	tieFn   func(int) bool
	// tel and fore are non-nil only on the observer replica.
	tel  *telemetry.Collector
	fore *forensics.Analyzer

	now        int64
	lastMotion int64
	nextMsgID  int64
	inFlight   int

	// active[i] is the slot id at position i; hotA[i] and msgA[i] are that
	// slot's record and message. aIdx inverts active; occ mirrors it as a
	// bitmap over slot ids (bit set iff the slot holds a message), giving
	// the route candidate scan a footprint of a few words instead of a
	// pointer array.
	active []int32
	hotA   []vcHot
	msgA   []*message.Message
	aIdx   []int32
	occ    []uint64

	// headerIDs lists the slot ids holding an arrived, unrouted header —
	// the only slots the allocation phase can act on — visited each cycle in
	// rotated active-position order. The scalar engine keeps the same set as
	// a position bitset and takes blocked headers off it until a release
	// wakes them; every header here is retried every cycle.
	headerIDs []int32

	injFree  []int32
	nextSlot int32

	rr             []uint32
	owners         []int32
	injecting      []int32
	flitsByChannel []int64

	arrivals []traffic.Arrival
	window   Counters
	base     Counters
}

// tieBreak resolves half-ring direction ties at injection, bound once as a
// method value so the inject path never allocates a closure.
func (rep *batchReplica) tieBreak(int) bool { return rep.rt.Bernoulli(0.5) }

// setActive records slot id live at the next position with record h and
// message m.
func (rep *batchReplica) setActive(id int32, h vcHot, m *message.Message) {
	rep.aIdx[id] = int32(len(rep.active))
	rep.active = append(rep.active, id)
	rep.hotA = append(rep.hotA, h)
	rep.msgA = append(rep.msgA, m)
	rep.occ[id>>6] |= 1 << (uint(id) & 63)
}

// clearActive swap-removes slot id: the last position's slot moves into its
// place, record and message included.
func (rep *batchReplica) clearActive(id int32) {
	last := len(rep.active) - 1
	i := rep.aIdx[id]
	moved := rep.active[last]
	rep.active[i] = moved
	rep.hotA[i] = rep.hotA[last]
	rep.msgA[i] = rep.msgA[last]
	rep.aIdx[moved] = i
	rep.active = rep.active[:last]
	rep.hotA = rep.hotA[:last]
	rep.msgA = rep.msgA[:last]
	rep.aIdx[id] = -1
	rep.occ[id>>6] &^= 1 << (uint(id) & 63)
}

// dropHeaderID removes id from the arrived-unrouted-header list (order is
// irrelevant — the allocation phase sorts by position).
func (rep *batchReplica) dropHeaderID(id int32) {
	for i, h := range rep.headerIDs {
		if h == id {
			last := len(rep.headerIDs) - 1
			rep.headerIDs[i] = rep.headerIDs[last]
			rep.headerIDs = rep.headerIDs[:last]
			return
		}
	}
}

// BatchNetwork runs R independent replicas of one network config in
// lockstep: one Step advances every live replica by one cycle through a
// fused inject/route/transfer sweep. The replicas share the precomputed
// topology and channel tables, while each replica's mutable state is dense
// in its active-slot count (see batchReplica), so the whole batch's working
// set is proportional to the simulated load, not to R times the channel
// count — the batch stays cache-resident where R scalar engines would
// thrash.
//
// Every replica is bit-identical to a scalar Network built from the same
// config and seed: the per-replica control flow reproduces the scalar
// cycle's decisions exactly (same iteration orders, same RNG draw order,
// same arbitration); only the memory layout, the arrival-draw batching and
// the bookkeeping that finds the slots with work differ (a retried header
// shortlist and a full transfer sweep here, parked headers and transfer marks
// there) — each visits the same slots in the same order. A replica that finishes (converged,
// or faulted) leaves the live set via Deactivate's dense swap-remove, so
// surviving replicas don't pay for it.
type BatchNetwork struct {
	cfg    BatchConfig
	g      *topology.Grid
	alg    routing.Algorithm
	policy routing.SelectionPolicy
	numVCs int
	nDims  int
	msgLen int32

	bufDepth   int32
	ports      int
	routeDelay int
	halfDuplex bool
	watchdog   int64

	prof *telemetry.PhaseTimer
	fore *forensics.Analyzer
	// foreSampling caches StartCycle's verdict for the observer's current
	// cycle, exactly as the scalar engine does.
	foreSampling bool

	onDeliver   func(int, *message.Message)
	onHeaderHop func(int, *message.Message, int, int, topology.Dir)

	tbl chanTable

	// chanVCs slots [0, chanVCs) are the channel virtual channels, in
	// (channel, class) order: slot id = ch*numVCs + class, so a channel
	// slot's channel and class are id/numVCs and id%numVCs. Ids at or above
	// chanVCs are injection slots (the scalar engine's vcCh[id] == -1
	// test). numSlots is the current id-space size, shared across replicas.
	chanVCs  int32
	numSlots int

	reps []batchReplica
	// live lists the replica indices still running; liveIdx[r] is r's
	// position in it, -1 once deactivated (dense swap-remove, mirroring the
	// active-list discipline inside each replica).
	live    []int32
	liveIdx []int32

	// Shared scratch, reused across replicas and cycles: each phase runs
	// replica-by-replica, so one set of buffers serves all of them.
	allBern    bool
	batchWs    []*traffic.Bernoulli
	batchOut   [][]traffic.Arrival
	arrStreams []*rng.Stream
	arrScratch []uint64
	cands      []routing.Candidate
	freeCands  []routing.Candidate
	freeScores []int
	hdrOrd     []int64
	moves      []int32
	moveChs    []int32
	chSlot     []int32
	reqs       [][]int32
	touched    []int32
	reqGen     uint32
	chReqGen   []uint32
	revGen     uint32
	chMoverGen []uint32
	chDropGen  []uint32
	wormRefs   []wormRef
	wormSort   wormRefSort
}

// NewBatch validates cfg and builds the batch network with every replica
// live.
func NewBatch(cfg BatchConfig) (*BatchNetwork, error) {
	if cfg.Grid == nil || cfg.Algorithm == nil {
		return nil, fmt.Errorf("network: Grid and Algorithm are required")
	}
	if len(cfg.Workloads) == 0 || len(cfg.Workloads) != len(cfg.Seeds) {
		return nil, fmt.Errorf("network: need equal, nonzero Workloads (%d) and Seeds (%d)", len(cfg.Workloads), len(cfg.Seeds))
	}
	for r, wl := range cfg.Workloads {
		if wl == nil {
			return nil, fmt.Errorf("network: Workloads[%d] is nil", r)
		}
	}
	if err := cfg.Algorithm.Compatible(cfg.Grid); err != nil {
		return nil, err
	}
	if cfg.MsgLen <= 0 {
		cfg.MsgLen = 16
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 2
	}
	if cfg.BufDepth < 1 {
		return nil, fmt.Errorf("network: BufDepth %d must be >= 1", cfg.BufDepth)
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 20000
	}
	if cfg.Policy == nil {
		cfg.Policy = routing.RandomPolicy{}
	}
	if cfg.Observer < 0 || cfg.Observer >= len(cfg.Seeds) {
		return nil, fmt.Errorf("network: Observer %d out of range [0,%d)", cfg.Observer, len(cfg.Seeds))
	}
	g := cfg.Grid
	R := len(cfg.Seeds)
	b := &BatchNetwork{
		cfg:         cfg,
		g:           g,
		alg:         cfg.Algorithm,
		policy:      cfg.Policy,
		numVCs:      cfg.Algorithm.NumVCs(g),
		nDims:       g.N(),
		msgLen:      int32(cfg.MsgLen),
		bufDepth:    int32(cfg.BufDepth),
		ports:       cfg.InjectionPorts,
		routeDelay:  cfg.RouteDelay,
		halfDuplex:  cfg.HalfDuplex,
		watchdog:    cfg.WatchdogCycles,
		prof:        cfg.Phases.Timer(),
		fore:        cfg.Forensics,
		onDeliver:   cfg.OnDeliver,
		onHeaderHop: cfg.OnHeaderHop,
	}
	slots := g.ChannelSlots()
	if cfg.Telemetry != nil {
		if chs, classes := cfg.Telemetry.Dims(); chs != slots || classes != b.numVCs {
			return nil, fmt.Errorf("network: telemetry collector sized for %d channels / %d classes, need %d / %d",
				chs, classes, slots, b.numVCs)
		}
	}
	if b.fore != nil {
		if chs := b.fore.Channels(); chs != slots {
			return nil, fmt.Errorf("network: forensics analyzer sized for %d channels, need %d", chs, slots)
		}
	}
	b.tbl = buildChanTable(g)
	b.chanVCs = int32(slots * b.numVCs)
	b.numSlots = int(b.chanVCs)
	b.reps = make([]batchReplica, R)
	b.live = make([]int32, R)
	b.liveIdx = make([]int32, R)
	for r := 0; r < R; r++ {
		rep := &b.reps[r]
		rep.idx = r
		rep.wl = cfg.Workloads[r]
		rep.bern, _ = cfg.Workloads[r].(*traffic.Bernoulli)
		rep.rt = rng.NewStream(cfg.Seeds[r], 0x90f7)
		rep.limiter = congestion.NewLimiter(g.Nodes(), cfg.CCLimit)
		rep.pool = message.NewPool()
		rep.tieFn = rep.tieBreak
		rep.nextSlot = b.chanVCs
		rep.aIdx = make([]int32, b.numSlots)
		for i := range rep.aIdx {
			rep.aIdx[i] = -1
		}
		rep.occ = make([]uint64, (b.numSlots+63)/64)
		rep.rr = make([]uint32, slots)
		rep.owners = make([]int32, slots)
		rep.injecting = make([]int32, g.Nodes())
		rep.flitsByChannel = make([]int64, slots)
		rep.window.FlitMovesByClass = make([]int64, b.numVCs)
		rep.base.FlitMovesByClass = make([]int64, b.numVCs)
		b.live[r] = int32(r)
		b.liveIdx[r] = int32(r)
	}
	b.reps[cfg.Observer].tel = cfg.Telemetry
	b.reps[cfg.Observer].fore = cfg.Forensics
	b.allBern = true
	for _, rep := range b.reps {
		if rep.bern == nil {
			b.allBern = false
			break
		}
	}
	b.batchWs = make([]*traffic.Bernoulli, 0, R)
	b.batchOut = make([][]traffic.Arrival, 0, R)
	b.arrStreams = make([]*rng.Stream, R)
	b.reqs = make([][]int32, slots)
	b.chSlot = make([]int32, slots)
	b.chReqGen = make([]uint32, slots)
	b.chMoverGen = make([]uint32, slots)
	b.chDropGen = make([]uint32, slots)
	return b, nil
}

// Grid returns the shared topology.
func (b *BatchNetwork) Grid() *topology.Grid { return b.g }

// NumVCs returns the virtual channels per physical channel in use.
func (b *BatchNetwork) NumVCs() int { return b.numVCs }

// Replicas returns R, the batch width at construction.
func (b *BatchNetwork) Replicas() int { return len(b.reps) }

// Live returns how many replicas are still stepping.
func (b *BatchNetwork) Live() int { return len(b.live) }

// IsLive reports whether replica r has not been deactivated.
func (b *BatchNetwork) IsLive(r int) bool { return b.liveIdx[r] >= 0 }

// Deactivate removes replica r from the live set: it stops stepping (its
// state freezes at its current cycle) and the survivors stop paying for it.
// Deactivating an already-dead replica is a no-op.
func (b *BatchNetwork) Deactivate(r int) {
	i := b.liveIdx[r]
	if i < 0 {
		return
	}
	last := len(b.live) - 1
	moved := b.live[last]
	b.live[i] = moved
	b.liveIdx[moved] = i
	b.live = b.live[:last]
	b.liveIdx[r] = -1
}

// Now returns replica r's current cycle.
func (b *BatchNetwork) Now(r int) int64 { return b.reps[r].now }

// InFlight returns replica r's admitted-but-undelivered message count.
func (b *BatchNetwork) InFlight(r int) int { return b.reps[r].inFlight }

// Window returns replica r's counters since its last ResetWindow.
func (b *BatchNetwork) Window(r int) Counters {
	rep := &b.reps[r]
	w := rep.window
	w.FlitMovesByClass = append([]int64(nil), rep.window.FlitMovesByClass...)
	return w
}

// Total returns replica r's lifetime counters (closed windows plus live).
func (b *BatchNetwork) Total(r int) Counters {
	rep := &b.reps[r]
	t := rep.base
	t.Cycles += rep.window.Cycles
	t.FlitMoves += rep.window.FlitMoves
	t.Generated += rep.window.Generated
	t.Admitted += rep.window.Admitted
	t.Dropped += rep.window.Dropped
	t.Delivered += rep.window.Delivered
	t.FlitMovesByClass = append([]int64(nil), rep.base.FlitMovesByClass...)
	for i, v := range rep.window.FlitMovesByClass {
		t.FlitMovesByClass[i] += v
	}
	return t
}

// ResetWindow folds replica r's window counters into its lifetime base and
// zeroes them.
func (b *BatchNetwork) ResetWindow(r int) {
	rep := &b.reps[r]
	rep.base.Cycles += rep.window.Cycles
	rep.base.FlitMoves += rep.window.FlitMoves
	rep.base.Generated += rep.window.Generated
	rep.base.Admitted += rep.window.Admitted
	rep.base.Dropped += rep.window.Dropped
	rep.base.Delivered += rep.window.Delivered
	for i, v := range rep.window.FlitMovesByClass {
		rep.base.FlitMovesByClass[i] += v
		rep.window.FlitMovesByClass[i] = 0
	}
	byClass := rep.window.FlitMovesByClass
	rep.window = Counters{FlitMovesByClass: byClass}
}

// Reseed hands replica r fresh random streams, exactly as Network.Reseed
// does at a sampling-period boundary.
func (b *BatchNetwork) Reseed(r int, seed uint64) {
	rep := &b.reps[r]
	rep.wl.Reseed(seed)
	rep.rt = rng.NewStream(seed, 0x90f7)
}

// ChannelFlitCounts returns replica r's lifetime flit transfers per physical
// channel slot.
func (b *BatchNetwork) ChannelFlitCounts(r int) []int64 {
	return append([]int64(nil), b.reps[r].flitsByChannel...)
}

// EffectiveChannels returns the channel count to normalize utilization by
// (shared across replicas).
func (b *BatchNetwork) EffectiveChannels() int {
	if b.halfDuplex {
		return b.g.NumChannels() / 2
	}
	return b.g.NumChannels()
}
