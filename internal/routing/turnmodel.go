package routing

import (
	"fmt"

	"wormsim/internal/message"
	"wormsim/internal/topology"
)

// Turn selects the restriction of a TurnModel algorithm.
type Turn int

// The members of Glass & Ni's turn-model family. The paper compares
// north-last (sec. 2.3 notes it is "a member of many partially-adaptive
// algorithms proposed by Glass and Ni"); west-first and negative-first are
// extensions beyond its six algorithms, useful for the X-TRANS experiment
// and for comparing turn restrictions.
const (
	// NorthLast: if the destination index is less than the source index in
	// dimension 1 (the message must travel "north", taken here as the
	// Minus direction of the highest dimension), the message corrects
	// dimension 0 completely first and then takes its north hops with no
	// adaptivity; otherwise it is routed fully adaptively among the minimal
	// directions. The two prohibited turns are north-to-east and
	// north-to-west.
	NorthLast Turn = iota
	// WestFirst routes all West hops (Minus in dimension 0) first and
	// non-adaptively; afterwards the message is fully adaptive among the
	// remaining minimal directions, none of which is West. The prohibited
	// turns are the ones into West.
	WestFirst
	// NegativeFirst routes all Minus-direction hops before any
	// Plus-direction hop: while negative hops remain the message is
	// adaptive among the negative dimensions only, afterwards among the
	// positive ones. The prohibited turns are the ones from a positive to a
	// negative direction.
	NegativeFirst
)

var turnNames = [...]string{NorthLast: "nlast", WestFirst: "wfirst", NegativeFirst: "negfirst"}

// TurnModel is Glass & Ni's partially adaptive turn-model routing, with the
// prohibited turns chosen by Turn.
//
// North-last and west-first are inherently two-dimensional: the turn-model
// proof relies on every dimension but the restricted one being totally
// ordered by the restriction, and with three or more dimensions the
// mutually unrestricted dimensions form rectangle cycles (the cdg analyzer
// exhibits one on a 4-ary 3-cube), so Compatible rejects n != 2 for them.
// NegativeFirst is the n-dimensional member of the family.
//
// Virtual channels on a torus: the paper leaves the nlast channel
// discipline unspecified. Per-dimension dateline classes (as used for
// e-cube) are NOT sufficient here: because southbound messages may turn
// freely between dimensions, "spiral" channel cycles exist that wrap both
// rings while every participating message crosses at most one dateline, so
// a cycle can close entirely within class 0. Instead the class of a hop is
// the number of wraparound (dateline) crossings the message has completed
// in any dimension. A minimal route crosses at most one wraparound per
// dimension, so n+1 classes suffice. Any deadlock cycle would have to stay
// within one class (classes only increase along a route, and a wraparound
// channel's holder in class c requests class c+1 next), and a single-class
// cycle contains no wraparound channel, reducing it to a mesh cycle that
// the turn restriction forbids. The argument holds for every member of the
// family. Deadlock freedom is additionally checked empirically by the drain
// stress tests.
type TurnModel struct {
	noAlloc
	Turn Turn
}

// Name returns "nlast", "wfirst" or "negfirst".
func (t TurnModel) Name() string { return turnNames[t.Turn] }

// FullyAdaptive returns false: every member restricts some turns (north-
// bound nlast messages lose all adaptivity).
func (TurnModel) FullyAdaptive() bool { return false }

// NumVCs returns n+1 on a torus (wrap-count classes) and 1 on a mesh.
func (TurnModel) NumVCs(g *topology.Grid) int {
	if g.Wrap() {
		return g.N() + 1
	}
	return 1
}

// Compatible requires a two-dimensional grid for nlast and wfirst (see the
// type comment).
func (t TurnModel) Compatible(g *topology.Grid) error {
	if t.Turn != NegativeFirst && g.N() != 2 {
		return fmt.Errorf("routing: %s is a two-dimensional turn-model algorithm, %v has n=%d (use negfirst)", t.Name(), g, g.N())
	}
	return nil
}

// Init assigns the congestion class from the first virtual channel the
// message intends to use: its first candidate's (dim, dir) pair.
func (t TurnModel) Init(g *topology.Grid, m *message.Message) {
	var buf [8]Candidate
	cands := t.Candidates(g, m, m.Src, buf[:0])
	m.Class = cands[0].Dim<<1 | int(cands[0].Dir)
}

// wrapCount returns the number of dateline crossings completed so far.
func wrapCount(m *message.Message) int {
	c := 0
	for _, crossed := range m.Crossed {
		if crossed {
			c++
		}
	}
	return c
}

// Candidates returns the admissible hops under the turn restriction, all
// on the wrap-count class.
func (t TurnModel) Candidates(g *topology.Grid, m *message.Message, node int, dst []Candidate) []Candidate {
	vc := 0
	if g.Wrap() {
		vc = wrapCount(m)
	}
	start := len(dst)
	switch t.Turn {
	case NorthLast:
		last := g.N() - 1
		goingNorth := m.Remaining[last] < 0
		for dim := 0; dim < g.N(); dim++ {
			dir, ok := m.DirInDim(dim)
			if !ok {
				continue
			}
			if goingNorth && dim == last && m.HopsLeft() != -m.Remaining[last] {
				// North hops are deferred until every other dimension is
				// corrected.
				continue
			}
			dst = append(dst, Candidate{Dim: dim, Dir: dir, VC: vc})
		}
	case WestFirst:
		// The single West hop while any West hops remain, then every
		// uncorrected dimension.
		if m.Remaining[0] < 0 {
			return append(dst, Candidate{Dim: 0, Dir: topology.Minus, VC: vc})
		}
		for dim := 0; dim < g.N(); dim++ {
			if dir, ok := m.DirInDim(dim); ok {
				dst = append(dst, Candidate{Dim: dim, Dir: dir, VC: vc})
			}
		}
	case NegativeFirst:
		// The negative-direction dimensions while any remain, then the
		// positive ones.
		for dim := 0; dim < g.N(); dim++ {
			if m.Remaining[dim] < 0 {
				dst = append(dst, Candidate{Dim: dim, Dir: topology.Minus, VC: vc})
			}
		}
		if len(dst) > start {
			return dst
		}
		for dim := 0; dim < g.N(); dim++ {
			if m.Remaining[dim] > 0 {
				dst = append(dst, Candidate{Dim: dim, Dir: topology.Plus, VC: vc})
			}
		}
	}
	if len(dst) == start {
		panic(fmt.Sprintf("routing: %s produced no candidates for %v", t.Name(), m))
	}
	return dst
}
