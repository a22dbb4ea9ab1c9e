package routing

import (
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

func TestECubeLanesNumVCs(t *testing.T) {
	torus := topology.NewTorus(16, 2)
	mesh := topology.NewMesh(16, 2)
	if got := (ECube{Lanes: 2}).NumVCs(torus); got != 4 {
		t.Errorf("2-lane torus VCs = %d, want 4", got)
	}
	if got := (ECube{Lanes: 4}).NumVCs(torus); got != 8 {
		t.Errorf("4-lane torus VCs = %d, want 8", got)
	}
	if got := (ECube{Lanes: 2}).NumVCs(mesh); got != 2 {
		t.Errorf("2-lane mesh VCs = %d, want 2", got)
	}
	if (ECube{Lanes: -1}).Compatible(torus) == nil {
		t.Error("-1 lanes accepted")
	}
	if (ECube{Lanes: 2}).Name() != "ecube2x" {
		t.Errorf("name %q", ECube{Lanes: 2}.Name())
	}
	// The zero value is plain e-cube: one dateline pair.
	if got := (ECube{}).NumVCs(torus); got != 2 || (ECube{}).Name() != "ecube" {
		t.Errorf("zero-value ECube: %q with %d VCs, want ecube with 2", ECube{}.Name(), got)
	}
}

// TestECubeLanesSamePhysicalPathAsECube: every lane candidate is the
// dimension-order hop, computed here without the algorithm — the lowest
// uncorrected dimension, in its minimal direction.
func TestECubeLanesSamePhysicalPathAsECube(t *testing.T) {
	g := topology.NewTorus(16, 2)
	r := rng.New(23)
	e := ECube{Lanes: 2}
	for trial := 0; trial < 200; trial++ {
		src := r.Intn(g.Nodes())
		dst := r.Intn(g.Nodes())
		if src == dst {
			continue
		}
		tie := r.Bernoulli(0.5)
		m := message.New(g, 0, src, dst, 16, 0, func(int) bool { return tie })
		cur := src
		var cands []Candidate
		for !m.Arrived() {
			cands = e.Candidates(g, m, cur, cands[:0])
			if len(cands) != 2 {
				t.Fatalf("2 lanes should give 2 candidates, got %v", cands)
			}
			ref := Candidate{Dim: -1}
			for dim := 0; dim < g.N() && ref.Dim < 0; dim++ {
				if dir, ok := m.DirInDim(dim); ok {
					ref = Candidate{Dim: dim, Dir: dir}
				}
			}
			// Every lane candidate matches e-cube's single physical hop.
			for _, c := range cands {
				if c.Dim != ref.Dim || c.Dir != ref.Dir {
					t.Fatalf("lane candidate %v leaves the e-cube path %v", c, ref)
				}
			}
			// Lane classes: {2l + cross}.
			cross := 0
			if m.Crossed[cands[0].Dim] {
				cross = 1
			}
			if cands[0].VC != cross || cands[1].VC != 2+cross {
				t.Fatalf("lane classes %v, want {%d,%d}", cands, cross, 2+cross)
			}
			c := cands[r.Intn(len(cands))]
			m.Advance(g, c.Dim, c.Dir, g.Coord(cur, c.Dim), g.Parity(cur))
			cur = g.Neighbor(cur, c.Dim, c.Dir)
		}
		if cur != dst {
			t.Fatalf("walk ended at %d", cur)
		}
	}
}
