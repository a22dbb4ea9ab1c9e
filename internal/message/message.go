// Package message defines the unit of communication: a fixed-length worm of
// flits with the per-message routing state the paper's algorithms need
// (remaining offsets, hop counts, negative-hop counts, dateline flags,
// bonus-card start class).
package message

import (
	"fmt"

	"wormsim/internal/topology"
)

// Message is one worm (or packet, under store-and-forward / virtual
// cut-through switching). Fields are updated by the routing algorithm as the
// header advances; flit occupancy is tracked by the network simulator.
type Message struct {
	ID  int64
	Src int
	Dst int
	// Len is the message length in flits.
	Len int

	// GenTime is the cycle the message was generated at the source,
	// DeliverTime the cycle its tail flit was consumed at the destination
	// (-1 while in flight). Latency is the difference, eq. (2) of the paper.
	GenTime     int64
	DeliverTime int64

	// Remaining holds the signed number of hops still to take per dimension
	// along the minimal path chosen at injection (+ means Plus direction).
	// It is decremented toward zero as the header advances.
	Remaining []int

	// HopsTotal is the minimal distance from Src to Dst; HopsTaken counts
	// header hops completed so far.
	HopsTotal int
	HopsTaken int

	// NegHops counts negative hops taken (hops out of an odd-parity node),
	// the virtual-channel class driver of the nhop scheme.
	NegHops int

	// BonusStart is the virtual-channel class the nbc scheme chose for the
	// first hop (0 for all other algorithms); the nbc class for any later
	// hop is BonusStart + NegHops.
	BonusStart int

	// Crossed marks, per dimension, whether the header has crossed that
	// ring's dateline (used by the e-cube and north-last VC assignment).
	Crossed []bool

	// TagForced and TagFree hold the source-computed 2pn tag (forced bits
	// and free-bit mask) for the source-tag 2pn variant.
	TagForced int
	TagFree   int

	// Class is the congestion-control message class assigned at generation
	// (sec. 3 of the paper: VC-number based for hop schemes and 2pn,
	// intended-first-VC based for e-cube and north-last).
	Class int

	// FirstAlloc is the cycle the header first acquired a first-hop virtual
	// channel (GenTime until then), and HeadStalls counts cycles the header
	// bid for an output virtual channel at an intermediate node and lost —
	// the raw inputs of the forensics latency anatomy. Maintained by the
	// network engine; never read by routing, so they cannot affect results.
	FirstAlloc int64
	HeadStalls int32
	// BlockedSince is the engine's blocked-cycle ledger for a parked header:
	// the last cycle whose failed bid has been charged to the observers, or -1
	// when nothing accrues (never parked, or parked for want of an injection
	// port). Meaningful only while the header is parked.
	BlockedSince int64
}

// New creates a message from src to dst with the given length, resolving
// half-ring direction ties with tieBreak (called once per tied dimension;
// return true for Plus). The caller provides gen time and id.
func New(g *topology.Grid, id int64, src, dst, length int, genTime int64, tieBreak func(dim int) bool) *Message {
	m := &Message{
		Remaining: make([]int, g.N()),
		Crossed:   make([]bool, g.N()),
	}
	m.reset(g, id, src, dst, length, genTime, tieBreak)
	return m
}

// reset reinitializes m in place for a fresh (src, dst) pair, consuming the
// same tieBreak draws as New. Remaining and Crossed must already have length
// g.N(); every other field is overwritten, so a recycled message carries no
// state from its previous life.
func (m *Message) reset(g *topology.Grid, id int64, src, dst, length int, genTime int64, tieBreak func(dim int) bool) {
	m.ID = id
	m.Src = src
	m.Dst = dst
	m.Len = length
	m.GenTime = genTime
	m.DeliverTime = -1
	m.FirstAlloc = genTime
	m.HeadStalls = 0
	m.BlockedSince = -1
	m.HopsTotal = 0
	m.HopsTaken = 0
	m.NegHops = 0
	m.BonusStart = 0
	m.TagForced = 0
	m.TagFree = 0
	m.Class = 0
	for i := 0; i < g.N(); i++ {
		off := g.Offset(src, dst, i)
		if g.TieInDim(src, dst, i) && tieBreak != nil && !tieBreak(i) {
			off = -off
		}
		m.Remaining[i] = off
		m.Crossed[i] = false
		if off < 0 {
			m.HopsTotal -= off
		} else {
			m.HopsTotal += off
		}
	}
}

// Arrived reports whether all dimensions are corrected.
func (m *Message) Arrived() bool { return m.HopsTaken == m.HopsTotal }

// HopsLeft returns the number of hops still to take.
func (m *Message) HopsLeft() int { return m.HopsTotal - m.HopsTaken }

// DirInDim returns the travel direction in dim and whether any hops remain
// in that dimension.
func (m *Message) DirInDim(dim int) (topology.Dir, bool) {
	r := m.Remaining[dim]
	switch {
	case r > 0:
		return topology.Plus, true
	case r < 0:
		return topology.Minus, true
	default:
		return topology.Plus, false
	}
}

// NegHopsNeeded returns the number of negative hops a minimal route from the
// current position will take, given the parity of the current node: on a
// bipartite grid parities strictly alternate along any path, so a route of L
// hops starting at an odd node takes ceil(L/2) negative hops and one
// starting at an even node takes floor(L/2).
func (m *Message) NegHopsNeeded(curParity int) int {
	l := m.HopsLeft()
	if curParity == 1 {
		return (l + 1) / 2
	}
	return l / 2
}

// Advance records a header hop in (dim, dir) from a node with the given
// coordinate in dim and parity: updates remaining offsets, hop and
// negative-hop counters and dateline flags. It panics if the hop is not
// minimal (remaining must be nonzero in the hop's direction).
func (m *Message) Advance(g *topology.Grid, dim int, dir topology.Dir, fromCoord, fromParity int) {
	r := m.Remaining[dim]
	if dir == topology.Plus {
		if r <= 0 {
			panic(fmt.Sprintf("message %d: non-minimal + hop in dim %d (remaining %d)", m.ID, dim, r))
		}
		m.Remaining[dim] = r - 1
	} else {
		if r >= 0 {
			panic(fmt.Sprintf("message %d: non-minimal - hop in dim %d (remaining %d)", m.ID, dim, r))
		}
		m.Remaining[dim] = r + 1
	}
	m.HopsTaken++
	if fromParity == 1 {
		m.NegHops++
	}
	if g.CrossesDateline(fromCoord, dir) {
		m.Crossed[dim] = true
	}
}

// Latency returns the measured latency in cycles, or -1 if not yet
// delivered.
func (m *Message) Latency() int64 {
	if m.DeliverTime < 0 {
		return -1
	}
	return m.DeliverTime - m.GenTime
}

// String identifies the message for diagnostics.
func (m *Message) String() string {
	return fmt.Sprintf("msg %d %d->%d len %d hops %d/%d", m.ID, m.Src, m.Dst, m.Len, m.HopsTaken, m.HopsTotal)
}
