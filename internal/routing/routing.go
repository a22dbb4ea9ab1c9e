// Package routing implements the wormhole routing algorithms compared by
// the paper and their family members, one type per family: e-cube with its
// virtual-channel lanes (ECube: ecube, ecube2x, ecube4x), Glass & Ni's turn
// model (TurnModel: north-last, plus west-first and negative-first), the
// eq. (1) tag scheme (TwoPowerN: the per-hop 2pn and the source-tag 2pnsrc,
// which is not deadlock-free on tori), and the three fully adaptive hop
// schemes (positive hop, negative hop, negative hop with bonus cards)
// derived from store-and-forward buffer-reservation algorithms.
//
// An Algorithm answers one question: given a message's routing state at a
// node, which (dimension, direction, virtual-channel class) triples may the
// header use for its next hop? All algorithms here are minimal: every
// candidate moves the message closer to its destination, so livelock is
// impossible by construction. Deadlock freedom comes from the virtual
// channel discipline each algorithm encodes in its candidate classes.
package routing

import (
	"fmt"
	"sort"

	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

// Candidate is one admissible next hop: the physical channel (Dim, Dir) out
// of the current node and the virtual-channel class VC on it.
type Candidate struct {
	Dim int
	Dir topology.Dir
	VC  int
}

// String renders a candidate like "d1+ vc3".
func (c Candidate) String() string {
	return fmt.Sprintf("d%d%s vc%d", c.Dim, c.Dir, c.VC)
}

// Algorithm is a minimal deadlock-free wormhole routing algorithm.
//
// Implementations are stateless; all per-message state lives in the Message
// (remaining offsets, hop counters, dateline flags, bonus start), which the
// network updates via Message.Advance and Allocated.
type Algorithm interface {
	// Name returns the registered short name: the paper's ecube, nlast,
	// 2pn, phop, nhop, nbc, or a family member such as ecube2x or 2pnsrc.
	Name() string
	// FullyAdaptive reports whether the algorithm admits every minimal path.
	FullyAdaptive() bool
	// NumVCs returns the number of virtual channels required per physical
	// channel on g.
	NumVCs(g *topology.Grid) int
	// Compatible returns nil if the algorithm is defined on g, or an error
	// explaining why not (e.g. negative-hop schemes need a bipartite grid).
	Compatible(g *topology.Grid) error
	// Init assigns the message's congestion-control class (sec. 3 of the
	// paper) and any algorithm-specific initial state.
	Init(g *topology.Grid, m *message.Message)
	// Candidates appends the admissible next hops for m at node to dst and
	// returns the extended slice. It must not be called for an arrived
	// message.
	Candidates(g *topology.Grid, m *message.Message, node int, dst []Candidate) []Candidate
	// Allocated notifies the algorithm that the header of m at node won the
	// output virtual channel c (used by nbc to latch the bonus-card class
	// chosen on the first hop).
	Allocated(g *topology.Grid, m *message.Message, node int, c Candidate)
}

// noAlloc provides the common empty Allocated hook.
type noAlloc struct{}

func (noAlloc) Allocated(*topology.Grid, *message.Message, int, Candidate) {}

// uncorrectedDims appends one (dim, dir) per dimension the message still has
// hops in, in increasing dimension order.
func uncorrectedDims(g *topology.Grid, m *message.Message, dst []Candidate) []Candidate {
	for dim := 0; dim < g.N(); dim++ {
		if dir, ok := m.DirInDim(dim); ok {
			dst = append(dst, Candidate{Dim: dim, Dir: dir})
		}
	}
	return dst
}

// registry of algorithms by name.
var registry = map[string]Algorithm{}

func register(a Algorithm) {
	if _, dup := registry[a.Name()]; dup {
		panic("routing: duplicate algorithm " + a.Name())
	}
	registry[a.Name()] = a
}

func init() {
	register(ECube{})
	register(ECube{Lanes: 2})
	register(ECube{Lanes: 4})
	register(TurnModel{Turn: NorthLast})
	register(TurnModel{Turn: WestFirst})
	register(TurnModel{Turn: NegativeFirst})
	register(TwoPowerN{})
	register(TwoPowerN{SourceTag: true})
	register(PositiveHop{})
	register(NegativeHop{})
	register(BonusCards{})
}

// Get returns the algorithm registered under name.
func Get(name string) (Algorithm, error) {
	a, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("routing: unknown algorithm %q (have %v)", name, Names())
	}
	return a, nil
}

// Names lists the registered algorithm names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry { //lint:allow simdeterminism,purity (collected then sorted)
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns the six algorithms in the paper's presentation order.
func All() []Algorithm {
	return []Algorithm{PositiveHop{}, NegativeHop{}, BonusCards{}, TwoPowerN{}, ECube{}, TurnModel{Turn: NorthLast}}
}

// SelectionPolicy picks one of several free output virtual channels for an
// adaptive header. scores[i] is a congestion estimate for cands[i] (lower is
// less congested); both slices are nonempty and equally long.
type SelectionPolicy interface {
	Name() string
	Select(cands []Candidate, scores []int, r *rng.Stream) int
}

// RandomPolicy picks uniformly among the free candidates. This is the
// default: it is unbiased and, combined with the wider candidate sets of the
// adaptive algorithms, realizes their adaptivity without modelling extra
// router lookahead.
type RandomPolicy struct{}

// Name returns "random".
func (RandomPolicy) Name() string { return "random" }

// Select picks a uniform index.
func (RandomPolicy) Select(cands []Candidate, _ []int, r *rng.Stream) int {
	return r.Intn(len(cands))
}

// FirstFreePolicy always picks the first free candidate in algorithm order,
// modelling the cheapest possible selection hardware.
type FirstFreePolicy struct{}

// Name returns "first".
func (FirstFreePolicy) Name() string { return "first" }

// Select picks index 0.
func (FirstFreePolicy) Select([]Candidate, []int, *rng.Stream) int { return 0 }

// LeastCongestedPolicy picks the candidate with the lowest congestion score,
// breaking ties uniformly at random. The paper argues nbc's bonus cards pay
// off because the wider first-hop class choice lets a message pick the least
// congested virtual channel.
type LeastCongestedPolicy struct{}

// Name returns "leastcongested".
func (LeastCongestedPolicy) Name() string { return "leastcongested" }

// Select picks the min-score candidate, random among ties.
func (LeastCongestedPolicy) Select(cands []Candidate, scores []int, r *rng.Stream) int {
	best := scores[0]
	n := 1
	pick := 0
	for i := 1; i < len(cands); i++ {
		switch {
		case scores[i] < best:
			best, pick, n = scores[i], i, 1
		case scores[i] == best:
			// Reservoir-sample among ties.
			n++
			if r.Intn(n) == 0 {
				pick = i
			}
		}
	}
	return pick
}

// GetPolicy returns the selection policy registered under name.
func GetPolicy(name string) (SelectionPolicy, error) {
	switch name {
	case "random", "":
		return RandomPolicy{}, nil
	case "first":
		return FirstFreePolicy{}, nil
	case "leastcongested":
		return LeastCongestedPolicy{}, nil
	}
	return nil, fmt.Errorf("routing: unknown selection policy %q", name)
}
