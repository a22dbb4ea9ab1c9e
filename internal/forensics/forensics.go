// Package forensics is the simulator's congestion post-mortem engine: a
// sampling analyzer that periodically reconstructs the wait-for graph from
// the engine's virtual-channel state (blocked worm -> worm holding the
// virtual channel it wants), propagates blame along holder chains so every
// observed blocked cycle is attributed to a root-cause channel (congestion
// trees with sizes and depths), detects runtime wait-for cycles as a
// near-deadlock early warning, and decomposes every delivered worm's latency
// into inject-queue wait, virtual-channel allocation stalls, blocked-behind
// time and ideal drain time, aggregated per routing class.
//
// The network engine Resets its *Analyzer from the Options in its Config and
// guards every hook with a nil check, so a detached analyzer costs one
// predictable branch per hook and an attached one never alters results
// (TestForensicsRunIsBitIdentical). The
// per-cycle path is allocation-free in steady state and map-free by
// construction — wait-for records are keyed by dense virtual-channel slot
// ids through generation-stamped arrays, the same technique the engine's
// half-duplex arbitration uses; TestSteadyStateZeroAlloc and
// TestForensicsSteadyStateZeroAlloc hold it there with an every-cycle
// analyzer attached.
//
// The wait-for graph follows each blocked worm's primary edge: the first
// admissible candidate channel in routing order, whose target virtual
// channel is necessarily occupied (route fails only when every admissible
// candidate is busy). For deterministic algorithms (e-cube) that edge is the
// worm's only option, so trees and cycles are exact; for adaptive algorithms
// a worm may later escape through another candidate, so a detected wait-for
// cycle is an early warning of pathological coupling rather than proof of
// deadlock — the live complement of the static CDG certificates.
package forensics

import (
	"fmt"
	"strings"

	"wormsim/internal/stats"
)

// DefaultSampleEvery is the sampling period when Options does not set one:
// frequent enough to track congestion-tree churn, sparse enough that the
// analyzer's overhead stays well under the 5% budget (forensics/* benches).
const DefaultSampleEvery = 64

// Options selects what an Analyzer records. The zero value samples every
// DefaultSampleEvery cycles.
type Options struct {
	// SampleEvery reconstructs the wait-for graph every this many cycles.
	// 1 analyzes every cycle, making blame attribution exact (it then equals
	// telemetry's head-blocked accounting); larger values estimate blame by
	// weighting each sampled observation by the period.
	SampleEvery int64 `json:",omitempty"`
}

// withDefaults fills unset option fields.
func (o Options) withDefaults() Options {
	if o.SampleEvery <= 0 {
		o.SampleEvery = DefaultSampleEvery
	}
	return o
}

// record is one wait-for edge captured during a sampled cycle: a blocked
// worm (its head buffer's vc slot), the virtual channel it wants, and the
// head slot of the worm holding that channel (-1 when the holder is moving
// or draining, which makes the wanted channel a congestion-tree root).
type record struct {
	head     int32
	holder   int32
	msg      int64
	holderID int64
	wantCh   int32
	width    int32
	wantVC   int16
	class    int16
}

// CycleEdge is one edge of a detected wait-for cycle: Msg's header wants
// virtual channel (Ch, VC), which WaitsFor currently holds.
type CycleEdge struct {
	Msg      int64
	WaitsFor int64
	Ch       int
	VC       int
}

// classAnat accumulates latency anatomy for one routing class.
type classAnat struct {
	delivered int64
	hops      int64
	totalSum  float64
	inject    stats.Histogram
	alloc     stats.Histogram
	behind    stats.Histogram
	drain     stats.Histogram
}

// Analyzer reconstructs wait-for graphs and latency anatomy for one run. It
// is not safe for concurrent use; each run owns its analyzer (the network
// engine keeps one and Resets it for every run that asks for forensics).
// All per-cycle state lives in reused generation-stamped slices, so
// steady-state sampling allocates nothing.
type Analyzer struct {
	opts Options

	cycles   int64
	samples  int64
	sampling bool

	// The current sample's wait-for records. recAt[slot] is the record index
	// of the worm whose head sits in vc slot `slot`, valid only when
	// recGen[slot] == gen — a generation stamp per sample replaces clearing.
	recs   []record
	recAt  []int32
	recGen []uint32
	gen    uint32

	// Resolution scratch, parallel to recs (grown on demand, reused).
	state   []uint8 // 0 unvisited, 1 on the chain stack, 2 resolved
	rootCh  []int32
	rootRec []int32
	depth   []int32
	treeSz  []int32
	stack   []int32

	// Accumulators across samples. blame[ch] is the estimated number of
	// blocked worm-cycles whose congestion tree is rooted at channel ch;
	// roots[ch] counts tree-root occurrences of ch across samples.
	blame        []int64
	roots        []int64
	observed     int64
	attributed   int64
	unattributed int64
	curUnattr    int64
	trees        int64
	waitCycles   int64
	treeSizeSum  int64
	maxTreeSize  int64
	maxTreeDepth int64
	widthSum     int64

	// Last-sample state, rendered into the deadlock watchdog's report.
	lastCycle     int64
	lastBlocked   int
	lastRootCh    int32
	lastRootSize  int32
	lastMaxDepth  int32
	lastWaitCycle []CycleEdge
	haveWaitCycle bool

	anat []classAnat
}

// New returns an analyzer for a network with the given number of physical
// channel slots.
func New(opts Options, channelSlots int) *Analyzer {
	a := new(Analyzer)
	a.Reset(opts, channelSlots)
	return a
}

// Reset re-initialises a for a new run, as New would build it, on the
// arrays its earlier runs grew: the network engine recycles its analyzer
// with itself. Nothing a caller can observe depends on what a analyzed
// before; the slot stamps are cleared, so no record of an earlier run can
// match.
func (a *Analyzer) Reset(opts Options, channelSlots int) {
	clear(a.recGen)
	*a = Analyzer{
		opts:          opts.withDefaults(),
		recs:          a.recs[:0],
		recAt:         a.recAt,
		recGen:        a.recGen,
		state:         a.state,
		rootCh:        a.rootCh,
		rootRec:       a.rootRec,
		depth:         a.depth,
		treeSz:        a.treeSz,
		stack:         a.stack[:0],
		blame:         zeroed(a.blame, channelSlots),
		roots:         zeroed(a.roots, channelSlots),
		lastRootCh:    -1,
		lastWaitCycle: a.lastWaitCycle[:0],
		anat:          a.anat[:0],
	}
}

// zeroed returns a zeroed slice of length n on s's backing array when it
// is large enough.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// StartCycle opens one simulation cycle and reports whether this cycle is
// sampled: if so, the engine records a wait-for edge for every head-blocked
// worm (Blocked) and then calls Resolve in the same cycle, while the slot
// ids in the records are still live.
func (a *Analyzer) StartCycle(cycle int64) bool {
	a.cycles++
	a.sampling = cycle%a.opts.SampleEvery == 0
	if a.sampling {
		a.recs = a.recs[:0]
		a.gen++
		a.curUnattr = 0
	}
	return a.sampling
}

// Blocked records one wait-for edge of the current sample: the worm whose
// head sits in vc slot head failed virtual-channel allocation this cycle
// and primarily waits for (wantCh, wantVC), held by the worm whose head is
// at slot holderHead (-1 when the holder is moving or draining). width is
// the number of admissible-but-busy candidate channels. Calls outside a
// sampled cycle are ignored, so the engine may call it unconditionally from
// the allocation loop.
func (a *Analyzer) Blocked(head int32, msg int64, class int, wantCh int32, wantVC int16, width int32, holderHead int32, holderID int64) {
	if !a.sampling {
		return
	}
	for int(head) >= len(a.recAt) {
		a.recAt = append(a.recAt, 0)
		a.recGen = append(a.recGen, 0)
	}
	a.recAt[head] = int32(len(a.recs))
	a.recGen[head] = a.gen
	a.recs = append(a.recs, record{
		head: head, holder: holderHead, msg: msg, holderID: holderID,
		wantCh: wantCh, width: width, wantVC: wantVC, class: int16(class),
	})
}

// BlockedUnattributable records a head-blocked worm with no admissible
// candidate channel to wait on — impossible under minimal routing on the
// supported grids, counted rather than dropped so the attribution fraction
// stays honest if a future algorithm violates that.
func (a *Analyzer) BlockedUnattributable() {
	if a.sampling {
		a.curUnattr++
	}
}

// Resolve closes a sampled cycle: it follows every record's holder chain to
// a congestion-tree root (a wanted channel whose holder is making progress,
// or a wait-for cycle), then charges each blocked worm's share of blame to
// its root channel. Each record stands for SampleEvery blocked worm-cycles.
// Chains are walked once: resolved records memoize their root, so the pass
// is linear in the number of blocked worms.
func (a *Analyzer) Resolve(cycle int64) {
	a.samples++
	a.lastCycle = cycle
	a.lastBlocked = len(a.recs) + int(a.curUnattr)
	a.haveWaitCycle = false
	a.lastRootCh = -1
	a.lastRootSize = 0
	a.lastMaxDepth = 0
	every := a.opts.SampleEvery
	a.observed += every * a.curUnattr
	a.unattributed += every * a.curUnattr
	n := len(a.recs)
	if n == 0 {
		return
	}
	for len(a.state) < n {
		a.state = append(a.state, 0)
		a.rootCh = append(a.rootCh, 0)
		a.rootRec = append(a.rootRec, 0)
		a.depth = append(a.depth, 0)
		a.treeSz = append(a.treeSz, 0)
	}
	for i := 0; i < n; i++ {
		a.state[i] = 0
		a.treeSz[i] = 0
	}
	for i := 0; i < n; i++ {
		if a.state[i] == 2 {
			continue
		}
		a.stack = a.stack[:0]
		cur := int32(i)
		var rCh, rRec, baseDepth int32
		for {
			if a.state[cur] == 2 { // memoized suffix
				rCh, rRec, baseDepth = a.rootCh[cur], a.rootRec[cur], a.depth[cur]
				break
			}
			if a.state[cur] == 1 { // the chain closed on itself
				rCh, rRec, baseDepth = a.resolveWaitCycle(cur)
				break
			}
			a.state[cur] = 1
			a.stack = append(a.stack, cur)
			h := a.recs[cur].holder
			if h < 0 || int(h) >= len(a.recGen) || a.recGen[h] != a.gen {
				// The holder is moving, draining, or not itself blocked this
				// cycle: the wanted channel is where progress resumes — the
				// congestion-tree root.
				rCh, rRec, baseDepth = a.recs[cur].wantCh, cur, 0
				break
			}
			cur = a.recAt[h]
		}
		d := baseDepth
		for k := len(a.stack) - 1; k >= 0; k-- {
			j := a.stack[k]
			if a.state[j] == 2 {
				continue // cycle members were resolved in resolveWaitCycle
			}
			d++
			a.state[j] = 2
			a.rootCh[j] = rCh
			a.rootRec[j] = rRec
			a.depth[j] = d
		}
	}
	// Accumulate: tree sizes at root records, blame per root channel.
	for i := 0; i < n; i++ {
		a.treeSz[a.rootRec[i]]++
	}
	var bestSz int32
	for i := 0; i < n; i++ {
		a.blame[a.rootCh[i]] += every
		a.observed += every
		a.attributed += every
		a.widthSum += every * int64(a.recs[i].width)
		if int64(a.depth[i]) > a.maxTreeDepth {
			a.maxTreeDepth = int64(a.depth[i])
		}
		if a.depth[i] > a.lastMaxDepth {
			a.lastMaxDepth = a.depth[i]
		}
		if a.rootRec[i] != int32(i) {
			continue
		}
		sz := a.treeSz[i]
		a.trees++
		a.roots[a.rootCh[i]]++
		a.treeSizeSum += int64(sz)
		if int64(sz) > a.maxTreeSize {
			a.maxTreeSize = int64(sz)
		}
		if sz > bestSz {
			bestSz = sz
			a.lastRootCh = a.rootCh[i]
			a.lastRootSize = sz
		}
	}
}

// resolveWaitCycle handles a chain that closed on itself: the stack suffix
// from entry upward is a wait-for cycle. Members are resolved in place with
// the minimum wanted channel as the canonical root label and depth 1 (they
// jointly are the tree root); the most recent cycle is kept as a witness.
func (a *Analyzer) resolveWaitCycle(entry int32) (rootCh, rootRec, baseDepth int32) {
	pos := len(a.stack) - 1
	for a.stack[pos] != entry {
		pos--
	}
	members := a.stack[pos:]
	rootCh = a.recs[members[0]].wantCh
	rootRec = members[0]
	for _, j := range members {
		if a.recs[j].wantCh < rootCh {
			rootCh = a.recs[j].wantCh
		}
		if j < rootRec {
			rootRec = j
		}
	}
	a.waitCycles++
	a.haveWaitCycle = true
	a.lastWaitCycle = a.lastWaitCycle[:0]
	for _, j := range members {
		r := &a.recs[j]
		a.lastWaitCycle = append(a.lastWaitCycle, CycleEdge{
			Msg: r.msg, WaitsFor: r.holderID, Ch: int(r.wantCh), VC: int(r.wantVC),
		})
	}
	for _, j := range members {
		a.state[j] = 2
		a.rootCh[j] = rootCh
		a.rootRec[j] = rootRec
		a.depth[j] = 1
	}
	return rootCh, rootRec, 1
}

// Delivered records one delivered worm's latency anatomy. ideal is the
// worm's unloaded latency (eq. (2)'s ml + d - 1, plus router pipeline
// delay): the drain component. Inject wait is the time from generation to
// first-hop virtual-channel allocation; alloc stalls count cycles the
// header bid and lost at intermediate nodes; the remainder — time spent
// blocked behind a congestion tree's body flits and arbitration — is the
// blocked-behind component.
func (a *Analyzer) Delivered(class, hops int, genTime, firstAlloc, deliverTime int64, headStalls int32, ideal int64) {
	for len(a.anat) <= class {
		a.anat = append(a.anat, classAnat{})
	}
	ca := &a.anat[class]
	total := deliverTime - genTime
	inj := firstAlloc - genTime
	stall := int64(headStalls)
	behind := total - inj - stall - ideal
	if behind < 0 {
		behind = 0
	}
	ca.delivered++
	ca.hops += int64(hops)
	ca.totalSum += float64(total)
	ca.inject.Add(float64(inj))
	ca.alloc.Add(float64(stall))
	ca.behind.Add(float64(behind))
	ca.drain.Add(float64(ideal))
}

// StallReport renders the last sample's congestion-tree state for the
// deadlock watchdog: the dominant root and any wait-for cycle witness. It
// returns "" before the first sample. Called on the engine's Step path, so
// it builds the string with plain loops (no maps, no closures).
func (a *Analyzer) StallReport() string {
	if a.samples == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  blame (sampled at cycle %d): %d worms head-blocked", a.lastCycle, a.lastBlocked)
	if a.lastRootCh >= 0 {
		fmt.Fprintf(&b, "; dominant congestion tree rooted at ch %d (%d worms, depth <= %d)",
			a.lastRootCh, a.lastRootSize, a.lastMaxDepth)
	}
	b.WriteByte('\n')
	if a.haveWaitCycle {
		b.WriteString("  wait-for cycle (near-deadlock):")
		for _, e := range a.lastWaitCycle {
			fmt.Fprintf(&b, " worm %d -(ch %d vc %d)->", e.Msg, e.Ch, e.VC)
		}
		fmt.Fprintf(&b, " worm %d\n", a.lastWaitCycle[0].Msg)
	}
	return b.String()
}
