package routing

import (
	"wormsim/internal/message"
	"wormsim/internal/topology"
)

// TwoPowerN is the fully adaptive "2pn" scheme of the paper (sec. 2.2),
// derived from the work of Dally, Felperin et al. and Linder & Harden: each
// physical channel carries 2^n virtual channels, one per n-bit tag. The tag
// of a message is recomputed at every node from eq. (1):
//
//	t_i = 1 if x_i < d_i,  0 if x_i > d_i,  0 or 1 (free) if x_i = d_i
//
// where x is the *current* node and d the destination. Recomputing from the
// current node is what makes the scheme deadlock-free on tori: a header that
// crosses a wraparound link flips its bit in that dimension, so no tag class
// contains a complete ring cycle. Corrected dimensions leave their bit free,
// so a message may choose any tag consistent with the fixed bits; each
// admissible (dimension, direction) pair is offered on every consistent tag.
//
// For a 16-ary 2-cube this costs only four virtual channels per physical
// channel — the cheapest fully adaptive algorithm in the study, and the one
// the paper shows losing to plain e-cube under uniform and hotspot traffic.
type TwoPowerN struct {
	noAlloc
	// SourceTag selects "2pnsrc", the literal reading of eq. (1): the n-bit
	// tag is computed once at the source from s and d and kept for the
	// whole journey (free bits where s_i = d_i).
	//
	// WARNING: on a torus this discipline is NOT deadlock-free. All
	// messages travelling around a ring in one direction can share a single
	// tag class, so the channel-dependency graph contains ring cycles that
	// no class switch breaks, and the network wedges under moderate load.
	// The variant exists to test the reproduction hypothesis that the
	// paper's anomalous 2pn result — a fully adaptive algorithm losing to
	// plain e-cube under wormhole switching but matching nbc under virtual
	// cut-through — is what a source-fixed tag produces: wormhole worms
	// lock up in those cycles, while cut-through packets park in buffers
	// and rarely complete one. Use the per-hop tag for the sound algorithm.
	// On meshes both variants are deadlock-free; Compatible accepts both
	// everywhere, and the simulator's watchdog reports the resulting
	// deadlocks.
	SourceTag bool
}

// Name returns "2pn", or "2pnsrc" for the source tag.
func (t TwoPowerN) Name() string {
	if t.SourceTag {
		return "2pnsrc"
	}
	return "2pn"
}

// FullyAdaptive returns true.
func (TwoPowerN) FullyAdaptive() bool { return true }

// NumVCs returns 2^n on a torus and 2^(n-1) on a mesh (the paper: "2^n
// (respectively, 2^(n-1)) virtual channels per physical channel of a k-ary
// n-cube (respectively, mesh)"): on a mesh, dimension 0 needs no tag bit —
// with the other dimensions' directions pinned by their bits, dimension-0
// channels cannot close a cycle (Dally's mesh result).
func (TwoPowerN) NumVCs(g *topology.Grid) int {
	if g.Wrap() {
		return 1 << g.N()
	}
	return 1 << (g.N() - 1)
}

// Compatible always returns nil.
func (TwoPowerN) Compatible(*topology.Grid) error { return nil }

// tagBits returns the forced tag bits at node and a mask of the free
// (corrected, equal-coordinate) bit positions. On a torus every dimension
// contributes a bit; on a mesh dimension 0 is skipped and dimension i maps
// to bit i-1.
func tagBits(g *topology.Grid, m *message.Message, node int) (forced, freeMask int) {
	lo := 0
	if !g.Wrap() {
		lo = 1
	}
	for dim := lo; dim < g.N(); dim++ {
		x := g.Coord(node, dim)
		d := g.Coord(m.Dst, dim)
		switch {
		case x < d:
			forced |= 1 << (dim - lo)
		case x == d:
			freeMask |= 1 << (dim - lo)
		}
	}
	return forced, freeMask
}

// Init assigns the congestion class from the virtual-channel number the
// message can use: its source tag with free bits zero. The source-tag
// variant also stores the tag for the whole journey.
func (t TwoPowerN) Init(g *topology.Grid, m *message.Message) {
	forced, freeMask := tagBits(g, m, m.Src)
	if t.SourceTag {
		m.TagForced, m.TagFree = forced, freeMask
	}
	m.Class = forced
}

// Candidates offers every uncorrected dimension on every tag consistent
// with eq. (1) at the current node, or with the stored source tag.
func (t TwoPowerN) Candidates(g *topology.Grid, m *message.Message, node int, dst []Candidate) []Candidate {
	forced, freeMask := m.TagForced, m.TagFree
	if !t.SourceTag {
		forced, freeMask = tagBits(g, m, node)
	}
	// Enumerate the subsets of freeMask; each yields one consistent tag.
	sub := 0
	for {
		tag := forced | sub
		for dim := 0; dim < g.N(); dim++ {
			if dir, ok := m.DirInDim(dim); ok {
				dst = append(dst, Candidate{Dim: dim, Dir: dir, VC: tag})
			}
		}
		if sub == freeMask {
			break
		}
		sub = (sub - freeMask) & freeMask
	}
	return dst
}
