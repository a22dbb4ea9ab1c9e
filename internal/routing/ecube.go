package routing

import (
	"fmt"

	"wormsim/internal/message"
	"wormsim/internal/topology"
)

// ECube is the well-known non-adaptive dimension-order routing algorithm: a
// message fully corrects dimension 0, then dimension 1, and so on. On a
// torus each ring is made deadlock-free with the Dally–Seitz dateline
// discipline: two virtual-channel classes per physical channel, class 0
// until the header crosses the ring's wraparound link, class 1 after. On a
// mesh a single class suffices.
//
// With Lanes = L > 1 there are L independent virtual-channel "lanes": each
// lane is its own Dally–Seitz dateline pair, and a header may take any free
// lane of the single physical channel e-cube prescribes. Routing stays
// non-adaptive (one physical path); only the virtual-channel choice widens.
// This is the experiment the paper's conclusion points to — "Dally shows
// that additional virtual channels improve the performance of e-cube for
// uniform traffic" — packaged as the A-VC ablation (ecube2x, ecube4x).
//
// Deadlock freedom with lanes: lanes do not interact (a message stays in
// its lane once the first hop picked it... in fact the lane may change per
// dimension; the dependency graph is the disjoint union of L copies of the
// single-lane graph per dimension, each acyclic under the dateline rule).
type ECube struct {
	noAlloc
	// Lanes is the number of dateline pairs per physical channel; the zero
	// value is plain e-cube's one.
	Lanes int
}

// lanes returns the number of dateline pairs.
func (e ECube) lanes() int {
	if e.Lanes == 0 {
		return 1
	}
	return e.Lanes
}

// Name returns "ecube", or e.g. "ecube2x" for two lanes.
func (e ECube) Name() string {
	if e.Lanes == 0 {
		return "ecube"
	}
	return fmt.Sprintf("ecube%dx", e.Lanes)
}

// FullyAdaptive returns false: e-cube admits exactly one path.
func (ECube) FullyAdaptive() bool { return false }

// NumVCs returns 2 per lane on a torus (dateline classes) and 1 per lane on
// a mesh.
func (e ECube) NumVCs(g *topology.Grid) int {
	if g.Wrap() {
		return 2 * e.lanes()
	}
	return e.lanes()
}

// Compatible rejects a negative lane count; e-cube works on any grid.
func (e ECube) Compatible(*topology.Grid) error {
	if e.Lanes < 0 {
		return fmt.Errorf("routing: ecube lanes must be >= 1, have %d", e.Lanes)
	}
	return nil
}

// Init assigns the congestion class from the single physical channel the
// message will use first: its first-hop (dim, dir) pair (no dateline has
// been crossed at the source).
func (ECube) Init(g *topology.Grid, m *message.Message) {
	for dim := 0; dim < g.N(); dim++ {
		if dir, ok := m.DirInDim(dim); ok {
			m.Class = dim<<1 | int(dir)
			return
		}
	}
}

// Candidates offers the single admissible physical hop — the lowest
// uncorrected dimension, in its minimal direction — on every lane's
// dateline class: 2·lane + crossed on a torus, lane on a mesh.
func (e ECube) Candidates(g *topology.Grid, m *message.Message, node int, dst []Candidate) []Candidate {
	for dim := 0; dim < g.N(); dim++ {
		dir, ok := m.DirInDim(dim)
		if !ok {
			continue
		}
		stride, cross := 1, 0
		if g.Wrap() {
			stride = 2
			if m.Crossed[dim] {
				cross = 1
			}
		}
		for lane := 0; lane < e.lanes(); lane++ {
			dst = append(dst, Candidate{Dim: dim, Dir: dir, VC: stride*lane + cross})
		}
		return dst
	}
	panic(fmt.Sprintf("routing: ecube candidates for arrived %v", m))
}
