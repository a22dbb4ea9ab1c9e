package network

import (
	"fmt"
	"sort"
	"strings"

	"wormsim/internal/message"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// Step advances every live replica one cycle through a fused sweep: one
// batched arrival draw, then each replica's inject, allocate and transfer
// phases run back to back while its lines are hot. Each replica's control
// flow reproduces the scalar Network.Step decisions exactly, so its results
// are bit-identical to a scalar run of the same config and seed. Replicas
// whose deadlock watchdog fires are returned as faults; they keep stepping
// until the caller Deactivates them (the scalar engine has the same
// property — Step after a watchdog report keeps simulating). The returned
// slice is nil in the common no-fault case.
//
//lint:parity draws every replica's arrival draw is hoisted into one ArrivalsBatch sweep before the phase loop; each replica still consumes its own stream in scalar order
//lint:parity hooks the fused sweep brackets its phases with one timer-mark ordering, so EndCycle lands before the last mark instead of after it
//lint:parity reads cfg.Observer is checked up front so observer rows are staged only when a sink is installed
//lint:parity writes arrival, observer-row and watchdog staging buffers (arrivals, arrScratch, batchOut, batchWs) are batch-only scratch shared across replicas
func (b *BatchNetwork) Step() []ReplicaFault {
	if b.prof != nil {
		b.prof.Begin()
	}
	if b.fore != nil && b.IsLive(b.cfg.Observer) {
		// A converged (deactivated) observer no longer advances, so its
		// analyzer must stop counting cycles too — a scalar run of the
		// observer's seed would have returned by now.
		obs := &b.reps[b.cfg.Observer]
		if obs.fore != nil {
			b.foreSampling = b.fore.StartCycle(obs.now)
		}
	}
	b.drawArrivals()
	// One fully fused pass per replica: its injected, routed and transferred
	// state is touched once per cycle while its lines are hot, instead of
	// re-fetched by three phase sweeps. Replicas share no mutable state, so
	// fusing across them cannot change any replica's outcome; the phase
	// profiler marks per replica and sub-phase, which accumulates into the
	// same phase buckets the scalar engine reports.
	for _, r := range b.live {
		rep := &b.reps[r]
		b.injectR(rep)
		if b.prof != nil {
			b.prof.Mark(telemetry.PhaseInject)
		}
		b.allocateR(rep)
		if rep.fore != nil && b.foreSampling {
			// Resolve within the cycle, while the captured slot ids are live.
			rep.fore.Resolve(rep.now)
		}
		if b.prof != nil {
			b.prof.Mark(telemetry.PhaseRoute)
		}
		if b.transferR(rep) {
			rep.lastMotion = rep.now
		}
		rep.now++
		rep.window.Cycles++
		if rep.tel != nil {
			rep.tel.EndCycle()
		}
		if b.prof != nil {
			b.prof.Mark(telemetry.PhaseTransfer)
		}
	}
	var faults []ReplicaFault
	if b.watchdog > 0 {
		for _, r := range b.live {
			rep := &b.reps[r]
			if rep.inFlight > 0 && rep.now-rep.lastMotion > b.watchdog {
				faults = append(faults, ReplicaFault{Replica: rep.idx, Err: b.deadlockErrR(rep)})
			}
		}
	}
	if b.prof != nil {
		b.prof.Mark(telemetry.PhaseWatchdog)
	}
	return faults
}

// drawArrivals fills every live replica's arrival scratch for this cycle.
// When all workloads are Bernoulli replicas the per-node trials of all
// replicas issue as one interleaved grid of PCG draws (R-way ILP on the
// engine's hottest serial chain); each replica's streams still consume
// draws in exactly the order its own Arrivals call would.
func (b *BatchNetwork) drawArrivals() {
	if b.allBern && len(b.live) > 1 {
		ws := b.batchWs[:0]
		outs := b.batchOut[:0]
		for _, r := range b.live {
			rep := &b.reps[r]
			ws = append(ws, rep.bern)
			outs = append(outs, rep.arrivals[:0])
		}
		b.batchWs, b.batchOut = ws, outs
		b.arrScratch = traffic.ArrivalsBatch(ws, b.arrScratch, b.arrStreams, outs)
		for i, r := range b.live {
			b.reps[r].arrivals = outs[i]
		}
		return
	}
	for _, r := range b.live {
		rep := &b.reps[r]
		rep.arrivals = rep.wl.Arrivals(rep.now, rep.arrivals[:0])
	}
}

// injectR admits replica rep's arrivals onto injection slots (scalar
// Network.inject).
//
//lint:parity draws the arrival draw happens once in Step's batched sweep; injectR consumes the staged arrivals
//lint:parity writes the scalar engine refills its arrivals scratch and seeds the new slot's counters inline; the batch engine seeds slots through setActive and records fresh headers in headerIDs (hdrBits on the scalar side)
func (b *BatchNetwork) injectR(rep *batchReplica) {
	for _, a := range rep.arrivals {
		rep.window.Generated++
		m := rep.pool.Get(b.g, rep.nextMsgID, a.Src, a.Dst, int(b.msgLen), rep.now, rep.tieFn)
		rep.nextMsgID++
		b.alg.Init(b.g, m)
		if !rep.limiter.Admit(a.Src, m.Class) {
			rep.window.Dropped++
			if rep.tel != nil {
				rep.tel.Drop(rep.now, m.ID, a.Src, a.Dst)
			}
			rep.pool.Put(m)
			continue
		}
		rep.window.Admitted++
		rep.inFlight++
		id := b.newInjSlotR(rep)
		rep.setActive(id, vcHot{out: outRoute{ch: outNone}, flits: int32(m.Len), node: int32(a.Src)}, m)
		rep.headerIDs = append(rep.headerIDs, id)
		if rep.tel != nil {
			rep.tel.Inject(rep.now, m.ID, a.Src, a.Dst)
			rep.tel.InjEnqueue()
		}
	}
}

// newInjSlotR returns a free injection-slot id for rep, growing the shared
// slot-id space when every id is in use. Per-replica ids are allocated with
// the same free-list-then-append discipline as the scalar engine, so a
// replica's slot ids match its scalar run's exactly.
//
//lint:parity writes the scalar helper seeds the fresh slot's VC state inline; the batch helper only allocates the id — setActive seeds state — and grows the shared slot space (numSlots, active)
func (b *BatchNetwork) newInjSlotR(rep *batchReplica) int32 {
	if k := len(rep.injFree); k > 0 {
		id := rep.injFree[k-1]
		rep.injFree = rep.injFree[:k-1]
		return id
	}
	id := rep.nextSlot
	rep.nextSlot++
	for int(id) >= b.numSlots {
		b.growSlots()
	}
	return id
}

// growSlots widens the shared slot-id space by one, extending every
// replica's id-indexed maps (position-indexed state needs nothing — it is
// sized by live slots, not by ids). The id space stabilizes at the batch's
// peak concurrent injections, after which inject allocates nothing.
func (b *BatchNetwork) growSlots() {
	b.numSlots++
	words := (b.numSlots + 63) / 64
	for r := range b.reps {
		rep := &b.reps[r]
		rep.aIdx = append(rep.aIdx, -1)
		for len(rep.occ) < words {
			rep.occ = append(rep.occ, 0)
		}
	}
}

// allocateR routes rep's arrived, unrouted headers (scalar
// Network.allocate). The rotation draw is consumed unconditionally — it is
// part of the replica's RNG sequence — and the headers come straight off
// rep.headerIDs, sorted into active-position order from the rotated start.
// The scalar engine reaches the same order through its pending-position
// bitset and additionally parks blocked headers until a release wakes them;
// this engine retries every unrouted header every cycle, which makes it the
// independent check on that shortcut (a parked header's retry must fail
// without side effects, or the bit-identity tests diverge).
//
//lint:parity writes the header shortlist is headerIDs and hdrOrd here, the pending bitset and parked lists (hdrBits, parkHead, parkNext) on the scalar side
func (b *BatchNetwork) allocateR(rep *batchReplica) {
	count := len(rep.active)
	if count == 0 {
		return
	}
	start := rep.rt.Intn(count)
	switch len(rep.headerIDs) {
	case 0:
		return
	case 1:
		b.tryRouteR(rep, rep.headerIDs[0])
	default:
		ord := b.hdrOrd[:0]
		for _, id := range rep.headerIDs {
			rel := int(rep.aIdx[id]) - start
			if rel < 0 {
				rel += count
			}
			ord = append(ord, int64(rel)<<32|int64(uint32(id)))
		}
		// Insertion sort: the shortlist is a handful of entries.
		for i := 1; i < len(ord); i++ {
			v := ord[i]
			j := i - 1
			for j >= 0 && ord[j] > v {
				ord[j+1] = ord[j]
				j--
			}
			ord[j+1] = v
		}
		b.hdrOrd = ord
		for _, o := range ord {
			//lint:allow indexdiscipline hdrOrd packs rel<<32|slot-id sort keys; the uint32 truncation here is the one decode back to a slot id
			b.tryRouteR(rep, int32(uint32(o)))
		}
	}
}

// tryRouteR applies the per-header gates (router pipeline readiness,
// injection-port budget) and routes the header (scalar Network.tryRoute,
// minus the parking).
func (b *BatchNetwork) tryRouteR(rep *batchReplica, id int32) {
	pos := rep.aIdx[id]
	h := &rep.hotA[pos]
	if rep.now < h.ready {
		return
	}
	if id >= b.chanVCs && b.ports > 0 && int(rep.injecting[h.node]) >= b.ports {
		return // all injection ports busy; wait for one to free up
	}
	m := rep.msgA[pos]
	if b.routeR(rep, id, pos, m) {
		rep.dropHeaderID(id)
	} else {
		if rep.tel != nil {
			rep.tel.HeadBlocked(m.Class)
		}
		if rep.fore != nil {
			b.foreBlockedR(rep, id, m)
		}
	}
}

// routeR attempts virtual-channel allocation for the header in rep's slot
// id at active position pos and reports whether it is routed afterwards
// (scalar Network.route).
//
//lint:parity writes the batch vcHot literal leaves the zero-valued counters (flits, ready, recvd, sent) implicit and records the downstream node at claim time; the scalar engine zero-seeds them explicitly, stores the node on header arrival and marks the routed slot for its transfer scan (xferBits)
func (b *BatchNetwork) routeR(rep *batchReplica, id int32, pos int32, m *message.Message) bool {
	node := int(rep.hotA[pos].node)
	if m.Dst == node {
		rep.hotA[pos].out = outRoute{ch: outEject}
		return true
	}
	b.cands = b.alg.Candidates(b.g, m, node, b.cands[:0])
	b.freeCands = b.freeCands[:0]
	b.freeScores = b.freeScores[:0]
	occ := rep.occ
	for _, c := range b.cands {
		ch := (node*b.nDims+c.Dim)*2 + int(c.Dir)
		if b.tbl.down[ch] < 0 {
			continue
		}
		t := ch*b.numVCs + c.VC
		if occ[t>>6]>>(uint(t)&63)&1 != 0 {
			continue
		}
		b.freeCands = append(b.freeCands, c)
		b.freeScores = append(b.freeScores, int(rep.owners[ch]))
	}
	if len(b.freeCands) == 0 {
		return false
	}
	pick := b.policy.Select(b.freeCands, b.freeScores, rep.rt)
	c := b.freeCands[pick]
	ch := (node*b.nDims+c.Dim)*2 + int(c.Dir)
	t := int32(ch*b.numVCs + c.VC)
	rep.owners[ch]++
	rep.setActive(t, vcHot{out: outRoute{ch: outNone}, node: b.tbl.down[ch]}, m)
	rep.hotA[pos].out = outRoute{ch: int32(ch), vc: int16(c.VC), dim: int8(c.Dim), dir: int8(c.Dir)}
	if id >= b.chanVCs {
		rep.injecting[node]++
		m.FirstAlloc = rep.now
	}
	b.alg.Allocated(b.g, m, node, c)
	if rep.tel != nil {
		rep.tel.VCAlloc(rep.now, m.ID, node, ch, c.VC)
		rep.tel.VCAcquired(c.VC)
	}
	return true
}

// transferR performs rep's ejection, channel arbitration and flit movement
// (scalar Network.transfer). It reports whether any flit moved across a
// channel. The dense pass collects movers and resolves channel contention as
// it scans: a channel's requesters are the worms holding its virtual
// channels, so there are at most numVCs of them, and in two-VC configs the
// second requester settles the channel on the spot — the same round-robin
// choice over the same scan-ordered pair the scalar arbitration makes,
// without materializing request lists. Wider VC configs fall back to the
// full request-list arbitration.
//
//lint:parity writes mover staging and generation-stamped arbitration scratch (moveChs, chSlot, reqGen, chReqGen) replace the scalar request lists; the scalar engine clears the transfer mark (xferBits) of a slot it drains
func (b *BatchNetwork) transferR(rep *batchReplica) bool {
	bufDepth := b.bufDepth
	numVCs := int32(b.numVCs)
	pairArb := numVCs == 2
	b.reqGen++
	gen := b.reqGen
	chGen := b.chReqGen
	chSlot := b.chSlot
	moves := b.moves[:0]
	chs := b.moveChs[:0]
	conflict := false
	active, hotA, aIdx := rep.active, rep.hotA, rep.aIdx
	rr := rep.rr
	for i := 0; i < len(active); i++ {
		h := &hotA[i]
		out := h.out
		if out.ch < 0 {
			if out.ch == outEject && h.flits != 0 && active[i] < b.chanVCs {
				h.sent += h.flits
				h.flits = 0
				rep.lastMotion = rep.now
				if h.sent == b.msgLen {
					b.deliverR(rep, active[i], i)
					active, hotA = rep.active, rep.hotA
					i-- // the swapped-in element must be visited too
				}
			}
			continue
		}
		if h.flits == 0 {
			continue
		}
		t := out.ch*numVCs + int32(out.vc)
		ht := &hotA[aIdx[t]]
		if ht.flits >= bufDepth && ht.out.ch != outEject {
			continue // no credit downstream (full consuming buffers drain)
		}
		if chGen[out.ch] == gen {
			if pairArb {
				// Second (and by the VC-ownership bound, last) requester:
				// the scalar arbitration picks reqs[rr%2] from the
				// scan-ordered pair, so an odd pointer flips the win to
				// this one. The pointer itself advances once per touched
				// channel, below.
				if rr[out.ch]&1 == 1 {
					moves[chSlot[out.ch]] = active[i]
				}
				continue
			}
			conflict = true
		} else {
			chGen[out.ch] = gen
			chSlot[out.ch] = int32(len(moves))
		}
		moves = append(moves, active[i])
		chs = append(chs, out.ch)
	}
	if conflict {
		moves = b.arbitrateR(rep, moves, chs)
	} else {
		// Winners are settled; the round-robin pointer advances once per
		// requested channel, as the scalar arbitration does.
		for _, ch := range chs {
			rr[ch]++
		}
	}
	b.moves, b.moveChs = moves, chs
	if b.halfDuplex && len(moves) > 1 {
		b.moves = b.dropReverseConflictsR(rep, moves)
	}
	for _, id := range b.moves {
		b.applyMoveR(rep, id)
	}
	return len(b.moves) > 0
}

// arbitrateR resolves contended channels for configs with more than two
// virtual channels per physical channel, where the scan's pairwise inline
// resolution doesn't apply: requesters group per channel in scan order and
// each channel picks one winner round-robin (scalar Network.transfer's
// arbitration loop, verbatim).
func (b *BatchNetwork) arbitrateR(rep *batchReplica, cand, chs []int32) []int32 {
	touched := b.touched[:0]
	for i, id := range cand {
		ch := chs[i]
		if len(b.reqs[ch]) == 0 {
			touched = append(touched, ch)
		}
		b.reqs[ch] = append(b.reqs[ch], id)
	}
	b.touched = touched
	// Winners overwrite cand in channel-touch order; reqs holds the copies.
	winners := cand[:0]
	for _, ch := range b.touched {
		req := b.reqs[ch]
		winner := req[0]
		if len(req) > 1 {
			winner = req[int(rep.rr[ch])%len(req)]
		}
		rep.rr[ch]++
		winners = append(winners, winner)
		b.reqs[ch] = req[:0]
	}
	return winners
}

// dropReverseConflictsR enforces half-duplex links for rep (scalar
// Network.dropReverseConflicts; the generation-stamped scratch is shared
// across replicas, the round-robin state is rep's own).
func (b *BatchNetwork) dropReverseConflictsR(rep *batchReplica, moves []int32) []int32 {
	b.revGen++
	gen := b.revGen
	for _, id := range moves {
		b.chMoverGen[rep.hotA[rep.aIdx[id]].out.ch] = gen
	}
	dropped := 0
	for _, id := range moves {
		ch := rep.hotA[rep.aIdx[id]].out.ch
		rev := b.tbl.rev[ch]
		if ch > rev {
			continue // each conflicting pair is handled from its lower side
		}
		if b.chMoverGen[rev] != gen {
			continue
		}
		// Alternate the winner per link across cycles.
		rep.rr[ch]++
		if rep.rr[ch]%2 == 0 {
			b.chDropGen[ch] = gen
		} else {
			b.chDropGen[rev] = gen
		}
		dropped++
	}
	if dropped == 0 {
		return moves
	}
	kept := moves[:0]
	for _, id := range moves {
		if b.chDropGen[rep.hotA[rep.aIdx[id]].out.ch] != gen {
			kept = append(kept, id)
		}
	}
	return kept
}

// applyMoveR transfers one flit from rep's slot id across its output
// channel (scalar Network.applyMove).
//
//lint:parity writes a completed header hop registers the downstream slot for the next allocate (headerIDs here, hdrBits on the scalar side); the scalar engine also maintains its transfer marks (xferBits) and wakes headers parked at the releasing node (parkHead)
func (b *BatchNetwork) applyMoveR(rep *batchReplica, id int32) {
	pos := rep.aIdx[id]
	h := &rep.hotA[pos]
	out := h.out
	ch := int(out.ch)
	t := int32(ch*b.numVCs + int(out.vc))
	ht := &rep.hotA[rep.aIdx[t]]
	h.flits--
	h.sent++
	ht.flits++
	ht.recvd++
	rep.window.FlitMoves++
	rep.window.FlitMovesByClass[out.vc]++
	rep.flitsByChannel[ch]++
	if rep.tel != nil {
		rep.tel.FlitMove(ch)
	}
	if ht.recvd == 1 {
		// Header hop completed: update the message's routing state from the
		// upstream node's viewpoint (precomputed in the channel tables).
		m := rep.msgA[pos]
		dim, dir := int(out.dim), topology.Dir(out.dir)
		m.Advance(b.g, dim, dir, int(b.tbl.coord[ch]), int(b.tbl.parity[ch]))
		ht.ready = rep.now + 1 + int64(b.routeDelay)
		rep.headerIDs = append(rep.headerIDs, t)
		if b.onHeaderHop != nil {
			// Zero-copy handoff by contract: m is engine-owned and valid only
			// for the duration of the callback (see BatchConfig.OnHeaderHop).
			b.onHeaderHop(rep.idx, m, int(ht.node), dim, dir) //lint:allow hookescape (documented borrow, copying would allocate per hop)
		}
		if rep.tel != nil {
			rep.tel.Hop(rep.now, m.ID, int(ht.node), ch, int(out.vc))
		}
	}
	if h.sent == b.msgLen {
		// Tail has left this buffer: release it.
		if id >= b.chanVCs {
			rep.limiter.Release(int(h.node), rep.msgA[pos].Class)
			rep.injecting[h.node]--
			if rep.tel != nil {
				rep.tel.InjDequeue()
			}
			rep.injFree = append(rep.injFree, id)
			rep.clearActive(id)
		} else {
			rep.owners[id/int32(b.numVCs)]--
			if rep.tel != nil {
				rep.tel.VCReleased(int(id % int32(b.numVCs)))
			}
			rep.clearActive(id)
		}
	}
}

// deliverR completes message consumption at rep's slot id, at active
// position pos (scalar Network.deliver).
//
//lint:parity reads the freed slot's physical channel is decoded from its id through numVCs; the scalar engine reads the stored vcCh entry instead
//lint:parity writes the scalar engine wakes the headers parked upstream of the freed channel (parkHead, hdrBits) and carries the swapped slot's marks (hdrBits, xferBits); this engine keeps no such state
func (b *BatchNetwork) deliverR(rep *batchReplica, id int32, pos int) {
	m := rep.msgA[pos]
	m.DeliverTime = rep.now
	rep.owners[id/int32(b.numVCs)]--
	rep.clearActive(id)
	rep.inFlight--
	rep.window.Delivered++
	if rep.tel != nil {
		rep.tel.VCReleased(int(id % int32(b.numVCs)))
		rep.tel.Deliver(rep.now, m.ID, m.Dst)
	}
	if rep.fore != nil {
		// The drain component is the unloaded latency of eq. (2), ml + d - 1,
		// plus the router pipeline delay the header paid at each hop.
		ideal := int64(m.HopsTotal)*int64(1+b.routeDelay) + int64(b.msgLen) - 1
		rep.fore.Delivered(m.Class, m.HopsTotal, m.GenTime, m.FirstAlloc, m.DeliverTime, m.HeadStalls, ideal)
	}
	if b.onDeliver != nil {
		// Zero-copy handoff by contract: m is pooled and valid only for the
		// duration of the callback (see BatchConfig.OnDeliver) — it is
		// recycled on the next line.
		b.onDeliver(rep.idx, m) //lint:allow hookescape (documented borrow, copying would defeat the message pool)
	}
	rep.pool.Put(m)
}

// foreBlockedR feeds the observer replica's forensics analyzer after a
// failed routeR (scalar Network.foreBlocked). Slot ids are per-replica and
// match the replica's scalar run, so the analyzer sees the same graph.
func (b *BatchNetwork) foreBlockedR(rep *batchReplica, id int32, m *message.Message) {
	if rep.fore == nil {
		return
	}
	if id < b.chanVCs {
		m.HeadStalls++
	}
	if !b.foreSampling {
		return
	}
	node := int(rep.hotA[rep.aIdx[id]].node)
	var width int32
	first := int32(-1)
	var firstVC int16
	for _, c := range b.cands {
		ch := int32((node*b.nDims+c.Dim)*2 + int(c.Dir))
		if b.tbl.down[ch] < 0 {
			continue
		}
		width++
		if first < 0 {
			first, firstVC = ch, int16(c.VC)
		}
	}
	if first < 0 {
		rep.fore.BlockedUnattributable()
		return
	}
	t := first*int32(b.numVCs) + int32(firstVC)
	var holder *message.Message
	if rep.occ[t>>6]>>(uint(t)&63)&1 != 0 {
		holder = rep.msgA[rep.aIdx[t]]
	}
	holderHead := int32(-1)
	holderID := int64(-1)
	if holder != nil && holder != m {
		holderHead = b.headSlotOfR(rep, t)
		holderID = holder.ID
	}
	rep.fore.Blocked(id, m.ID, m.Class, first, firstVC, width, holderHead, holderID)
	if rep.tel != nil {
		rep.tel.Block(rep.now, m.ID, node, int(first), int(firstVC), holderID)
	}
}

// headSlotOfR walks a worm's channel chain to its head slot in replica rep
// (scalar Network.headSlotOf).
func (b *BatchNetwork) headSlotOfR(rep *batchReplica, t int32) int32 {
	m := rep.msgA[rep.aIdx[t]]
	for {
		out := rep.hotA[rep.aIdx[t]].out
		if out.ch == outNone {
			return t
		}
		if out.ch == outEject {
			return -1
		}
		next := out.ch*int32(b.numVCs) + int32(out.vc)
		if rep.occ[next>>6]>>(uint(next)&63)&1 == 0 || rep.msgA[rep.aIdx[next]] != m {
			return t // defensive: never happens while the chain is intact
		}
		t = next
	}
}

// deadlockErrR builds replica rep's watchdog report (scalar Step's deadlock
// branch).
func (b *BatchNetwork) deadlockErrR(rep *batchReplica) *DeadlockError {
	err := &DeadlockError{Cycle: rep.now - rep.lastMotion, InFlight: rep.inFlight, Detail: b.describeStuckR(rep.idx, 8)}
	if rep.fore != nil {
		// Lead with causality: the blame root and any wait-for cycle witness
		// come before the raw stuck-worm dump.
		if blame := rep.fore.StallReport(); blame != "" {
			err.Blame = blame
			err.Detail = blame + err.Detail
		}
	}
	if rep.tel != nil && rep.tel.Tracing() {
		for i, w := range b.WormStatesOf(rep.idx) {
			if i >= 8 {
				break
			}
			rep.tel.Kill(rep.now, w.ID, w.HeadNode)
		}
		err.Trace = rep.tel.LastEvents(32)
		err.Detail += "last trace events:\n" + telemetry.FormatEvents(err.Trace)
	}
	return err
}

// WormStatesOf returns replica r's canonical in-flight state (scalar
// Network.WormStates): one telemetry.WormState per live worm, sorted by
// message ID, buffers ordered injection slot first then upstream to
// downstream.
//
//lint:parity reads slot ids decode to channel and class through numVCs; the scalar engine stores ch and class per VC
func (b *BatchNetwork) WormStatesOf(r int) []telemetry.WormState {
	rep := &b.reps[r]
	numVCs := int32(b.numVCs)
	refs := b.wormRefs[:0]
	for pos, id := range rep.active {
		ch := int32(-1)
		if id < b.chanVCs {
			ch = id / numVCs
		}
		refs = append(refs, wormRef{id: rep.msgA[pos].ID, vc: id, ch: ch, recvd: rep.hotA[pos].recvd})
	}
	b.wormRefs = refs
	b.wormSort.refs = refs
	sort.Sort(&b.wormSort)
	states := make([]telemetry.WormState, 0, rep.inFlight)
	for i := 0; i < len(refs); {
		j := i
		for j < len(refs) && refs[j].id == refs[i].id {
			j++
		}
		m := rep.msgA[rep.aIdx[refs[i].vc]]
		w := telemetry.WormState{
			ID: m.ID, Src: m.Src, Dst: m.Dst, Len: m.Len,
			HopsTaken: m.HopsTaken, HopsTotal: m.HopsTotal,
			Holding: make([]telemetry.VCHold, j-i),
		}
		for k := i; k < j; k++ {
			id := refs[k].vc
			h := &rep.hotA[rep.aIdx[id]]
			ch, class := -1, 0
			if id < b.chanVCs {
				ch, class = int(id/numVCs), int(id%numVCs)
			}
			w.Holding[k-i] = telemetry.VCHold{
				Ch: ch, Class: class,
				Node: int(h.node), Flits: int(h.flits),
			}
			// The header sits in the buffer that has forwarded nothing yet:
			// the injection slot before the first hop, or the deepest buffer
			// that has received at least one flit.
			if h.sent == 0 && (h.recvd > 0 || id >= b.chanVCs) {
				w.Routed = h.out.ch != outNone
				w.HeadNode = int(h.node)
			}
		}
		states = append(states, w)
		i = j
	}
	return states
}

// describeStuckR renders up to limit of replica r's stuck worms for the
// watchdog report.
func (b *BatchNetwork) describeStuckR(r, limit int) string {
	states := b.WormStatesOf(r)
	var sb strings.Builder
	for i, w := range states {
		if i >= limit {
			fmt.Fprintf(&sb, "  ... and %d more\n", len(states)-limit)
			break
		}
		fmt.Fprintf(&sb, "  %v head at %s\n", w, nodeName(b.g, w.HeadNode))
	}
	return sb.String()
}
