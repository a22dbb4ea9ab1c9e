package routing

import (
	"fmt"
	"hash/fnv"
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

// TestExhaustiveAllPairsCandidates validates, for every registered
// algorithm on a 6-ary 2-cube and a 5-ary 2-cube mesh, the candidate sets
// over ALL source/destination pairs and all states along random admissible
// walks:
//
//   - at least one candidate at every non-arrived state (no routing dead
//     ends);
//   - every candidate minimal, existing, and within the VC class bound;
//   - non-adaptive algorithms offer exactly one physical hop;
//   - fully adaptive algorithms offer every uncorrected dimension.
//
// It also folds every Init class and every ordered candidate list of the
// walks into one FNV-64a digest per (algorithm, grid) and compares it with
// candidateDigests: the random and first selection policies pick by index,
// so the order of a candidate list is part of an algorithm's results.
func TestExhaustiveAllPairsCandidates(t *testing.T) {
	grids := []*topology.Grid{topology.NewTorus(6, 2), topology.NewMesh(5, 2), topology.NewTorus(4, 3)}
	for _, g := range grids {
		for _, name := range Names() {
			a, _ := Get(name)
			if a.Compatible(g) != nil {
				continue
			}
			numVC := a.NumVCs(g)
			r := rng.New(uint64(g.Nodes()))
			h := fnv.New64a()
			fold := func(xs ...int) {
				for _, x := range xs {
					var b [8]byte
					for i := range b {
						b[i] = byte(uint64(x) >> (8 * i))
					}
					h.Write(b[:])
				}
			}
			for src := 0; src < g.Nodes(); src++ {
				for dst := 0; dst < g.Nodes(); dst++ {
					if src == dst {
						continue
					}
					m := message.New(g, 0, src, dst, 4, 0, func(int) bool { return r.Bernoulli(0.5) })
					a.Init(g, m)
					fold(src, dst, m.Class)
					cur := src
					var cands []Candidate
					for !m.Arrived() {
						cands = a.Candidates(g, m, cur, cands[:0])
						if len(cands) == 0 {
							t.Fatalf("%s on %v: dead end for %v at %d", name, g, m, cur)
						}
						fold(len(cands))
						physical := map[[2]int]bool{}
						dims := map[int]bool{}
						for _, c := range cands {
							fold(c.Dim, int(c.Dir), c.VC)
							if c.VC < 0 || c.VC >= numVC {
								t.Fatalf("%s on %v: class %d out of [0,%d)", name, g, c.VC, numVC)
							}
							if dir, ok := m.DirInDim(c.Dim); !ok || dir != c.Dir {
								t.Fatalf("%s on %v: non-minimal candidate %v for %v at %d", name, g, c, m, cur)
							}
							if !g.HasChannel(cur, c.Dim, c.Dir) {
								t.Fatalf("%s on %v: missing channel for %v at %d", name, g, c, cur)
							}
							physical[[2]int{c.Dim, int(c.Dir)}] = true
							dims[c.Dim] = true
						}
						uncorrected := 0
						for dim := 0; dim < g.N(); dim++ {
							if m.Remaining[dim] != 0 {
								uncorrected++
							}
						}
						switch {
						case name == "ecube" || name == "ecube2x" || name == "ecube4x":
							if len(physical) != 1 {
								t.Fatalf("%s: %d physical hops offered, want 1", name, len(physical))
							}
						case a.FullyAdaptive():
							if len(dims) != uncorrected {
								t.Fatalf("%s on %v: offers %d dims, want %d for %v at %d",
									name, g, len(dims), uncorrected, m, cur)
							}
						}
						c := cands[r.Intn(len(cands))]
						a.Allocated(g, m, cur, c)
						m.Advance(g, c.Dim, c.Dir, g.Coord(cur, c.Dim), g.Parity(cur))
						cur = g.Neighbor(cur, c.Dim, c.Dir)
					}
					if cur != dst {
						t.Fatalf("%s on %v: %d->%d ended at %d", name, g, src, dst, cur)
					}
				}
			}
			key := fmt.Sprintf("%s %v", name, g)
			if got, want := h.Sum64(), candidateDigests[key]; got != want {
				t.Errorf("%s: candidate digest %#016x, want %#016x", key, got, want)
			}
		}
	}
}

// candidateDigests pins TestExhaustiveAllPairsCandidates' walks: the Init
// class and the ordered candidate lists of every algorithm on every grid
// it is compatible with.
var candidateDigests = map[string]uint64{
	"2pn 6-ary 2-cube (torus)":      0x4feadfdfe0aff404,
	"2pnsrc 6-ary 2-cube (torus)":   0xca30e8981dcd4546,
	"ecube 6-ary 2-cube (torus)":    0x3bdd78842534b5e4,
	"ecube2x 6-ary 2-cube (torus)":  0xefb94cb34c24abe5,
	"ecube4x 6-ary 2-cube (torus)":  0xadcb4faaec3ffc45,
	"nbc 6-ary 2-cube (torus)":      0xca4c7fb0b3a325c6,
	"negfirst 6-ary 2-cube (torus)": 0xd2bd3c90bea871a7,
	"nhop 6-ary 2-cube (torus)":     0x2083a5a3df980f46,
	"nlast 6-ary 2-cube (torus)":    0x8b00b0b837c88344,
	"phop 6-ary 2-cube (torus)":     0x2ce3552eaae70d27,
	"wfirst 6-ary 2-cube (torus)":   0x6999ac8066e63245,
	"2pn 5-ary 2-cube (mesh)":       0x786d92cd53668127,
	"2pnsrc 5-ary 2-cube (mesh)":    0x8a1cd61957200ce7,
	"ecube 5-ary 2-cube (mesh)":     0x3a8d4f70eb218565,
	"ecube2x 5-ary 2-cube (mesh)":   0xbedf45a000a444a5,
	"ecube4x 5-ary 2-cube (mesh)":   0x2da535ee25f69a65,
	"nbc 5-ary 2-cube (mesh)":       0xe9f01af54f8f1dc5,
	"negfirst 5-ary 2-cube (mesh)":  0x41f644c95bf948a6,
	"nhop 5-ary 2-cube (mesh)":      0x75301c073672f404,
	"nlast 5-ary 2-cube (mesh)":     0x8f5b9b34cbb11507,
	"phop 5-ary 2-cube (mesh)":      0xb884e7b03d0f4ae3,
	"wfirst 5-ary 2-cube (mesh)":    0xc47114c679e9db67,
	"2pn 4-ary 3-cube (torus)":      0x76580a0c4cd5d305,
	"2pnsrc 4-ary 3-cube (torus)":   0x114c98e8ab7638c3,
	"ecube 4-ary 3-cube (torus)":    0xdf482117d9f46ee4,
	"ecube2x 4-ary 3-cube (torus)":  0x431cb804f05661e5,
	"ecube4x 4-ary 3-cube (torus)":  0xdd74415d38a0a305,
	"nbc 4-ary 3-cube (torus)":      0xa51a50cdf7fcaac6,
	"negfirst 4-ary 3-cube (torus)": 0x01ee58f679299787,
	"nhop 4-ary 3-cube (torus)":     0x0c27b3602e161e66,
	"phop 4-ary 3-cube (torus)":     0x6756bca33c620940,
}

// TestECubePathIsCanonical: for every pair, e-cube's walk visits exactly
// the dimension-ordered sequence of nodes.
func TestECubePathIsCanonical(t *testing.T) {
	g := topology.NewTorus(8, 2)
	for src := 0; src < g.Nodes(); src += 3 {
		for dst := 0; dst < g.Nodes(); dst += 5 {
			if src == dst {
				continue
			}
			m := message.New(g, 0, src, dst, 4, 0, func(int) bool { return true })
			ECube{}.Init(g, m)
			cur := src
			var cands []Candidate
			dim0Done := false
			for !m.Arrived() {
				cands = ECube{}.Candidates(g, m, cur, cands[:0])
				c := cands[0]
				if c.Dim == 0 && dim0Done {
					t.Fatalf("ecube revisited dim 0 after leaving it (%d->%d)", src, dst)
				}
				if c.Dim == 1 {
					dim0Done = true
				}
				m.Advance(g, c.Dim, c.Dir, g.Coord(cur, c.Dim), g.Parity(cur))
				cur = g.Neighbor(cur, c.Dim, c.Dir)
			}
		}
	}
}

// TestHopSchemeClassCeilings: along every walk the top class stays within
// the scheme's bound (phop: diameter; nhop/nbc: max negative hops), and
// the bound is attained by a diameter walk.
func TestHopSchemeClassCeilings(t *testing.T) {
	g := topology.NewTorus(16, 2)
	r := rng.New(99)
	// Diameter pair: (0,0) -> (8,8).
	src := 0
	dst := g.ID([]int{8, 8})
	maxSeen := map[string]int{}
	for trial := 0; trial < 100; trial++ {
		for _, name := range []string{"phop", "nhop", "nbc"} {
			a, _ := Get(name)
			classes := randomWalk(t, g, a, src, dst, r)
			for _, c := range classes {
				if c > maxSeen[name] {
					maxSeen[name] = c
				}
			}
		}
	}
	if maxSeen["phop"] != 15 { // classes 0..15 used for a 16-hop walk
		t.Errorf("phop max class on a diameter walk = %d, want 15", maxSeen["phop"])
	}
	if maxSeen["nhop"] != 7 { // 8 negative hops -> classes 0..7 used for hops
		t.Errorf("nhop max class = %d, want 7", maxSeen["nhop"])
	}
	if maxSeen["nbc"] > 8 {
		t.Errorf("nbc max class = %d, exceeds 8", maxSeen["nbc"])
	}
}
