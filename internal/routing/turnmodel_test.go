package routing

import (
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

func TestWestFirstRestriction(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// Needs West (-x) and South (+y): West must come first, alone.
	m := message.New(g, 0, node(g, 5, 5), node(g, 2, 7), 16, 0, nil)
	TurnModel{Turn: WestFirst}.Init(g, m)
	var cands []Candidate
	cands = TurnModel{Turn: WestFirst}.Candidates(g, m, node(g, 5, 5), cands)
	if len(cands) != 1 || cands[0].Dim != 0 || cands[0].Dir != topology.Minus {
		t.Fatalf("west-bound message should go west only, got %v", cands)
	}
	// Eastbound message is fully adaptive.
	m2 := message.New(g, 0, node(g, 5, 5), node(g, 8, 2), 16, 0, nil)
	cands = TurnModel{Turn: WestFirst}.Candidates(g, m2, node(g, 5, 5), cands[:0])
	if len(cands) != 2 {
		t.Fatalf("east-bound message should have 2 candidates, got %v", cands)
	}
	for _, c := range cands {
		if c.Dim == 0 && c.Dir == topology.Minus {
			t.Fatalf("east-bound message offered a west hop: %v", cands)
		}
	}
}

func TestNegativeFirstRestriction(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// Needs -x and +y: the negative hop comes first.
	m := message.New(g, 0, node(g, 5, 5), node(g, 2, 7), 16, 0, nil)
	TurnModel{Turn: NegativeFirst}.Init(g, m)
	var cands []Candidate
	cands = TurnModel{Turn: NegativeFirst}.Candidates(g, m, node(g, 5, 5), cands)
	if len(cands) != 1 || cands[0].Dir != topology.Minus {
		t.Fatalf("want the single negative hop first, got %v", cands)
	}
	// Needs -x and -y: adaptive among both negatives.
	m2 := message.New(g, 0, node(g, 5, 5), node(g, 3, 2), 16, 0, nil)
	cands = TurnModel{Turn: NegativeFirst}.Candidates(g, m2, node(g, 5, 5), cands[:0])
	if len(cands) != 2 {
		t.Fatalf("two negative dims should both be offered, got %v", cands)
	}
	// All-positive message: adaptive among positives.
	m3 := message.New(g, 0, node(g, 5, 5), node(g, 7, 8), 16, 0, nil)
	cands = TurnModel{Turn: NegativeFirst}.Candidates(g, m3, node(g, 5, 5), cands[:0])
	if len(cands) != 2 {
		t.Fatalf("two positive dims should both be offered, got %v", cands)
	}
	for _, c := range cands {
		if c.Dir != topology.Plus {
			t.Fatalf("positive phase offered a negative hop: %v", cands)
		}
	}
}

// TestTurnModelWalksComplete: both algorithms complete random minimal
// walks with classes bounded by n+1 and non-decreasing (wrap count).
func TestTurnModelWalksComplete(t *testing.T) {
	for _, topo := range []*topology.Grid{topology.NewTorus(16, 2), topology.NewMesh(8, 2), topology.NewTorus(6, 3)} {
		r := rng.New(29)
		for _, name := range []string{"wfirst", "negfirst"} {
			a, _ := Get(name)
			if a.Compatible(topo) != nil {
				continue // wfirst is two-dimensional
			}
			for trial := 0; trial < 200; trial++ {
				src := r.Intn(topo.Nodes())
				dst := r.Intn(topo.Nodes())
				if src == dst {
					continue
				}
				classes := randomWalk(t, topo, a, src, dst, r)
				for i := 1; i < len(classes); i++ {
					if classes[i] < classes[i-1] {
						t.Fatalf("%s on %v: class sequence %v decreased", name, topo, classes)
					}
				}
				if max := topo.N(); topo.Wrap() {
					for _, c := range classes {
						if c > max {
							t.Fatalf("%s: class %d beyond wrap count bound %d", name, c, max)
						}
					}
				}
			}
		}
	}
}

// TestNegativeFirstOrdering: once a positive hop is taken, no negative hop
// follows (the prohibited turn).
func TestNegativeFirstOrdering(t *testing.T) {
	g := topology.NewTorus(16, 2)
	r := rng.New(31)
	for trial := 0; trial < 300; trial++ {
		src := r.Intn(g.Nodes())
		dst := r.Intn(g.Nodes())
		if src == dst {
			continue
		}
		m := message.New(g, 0, src, dst, 16, 0, func(int) bool { return r.Bernoulli(0.5) })
		TurnModel{Turn: NegativeFirst}.Init(g, m)
		cur := src
		var cands []Candidate
		seenPositive := false
		for !m.Arrived() {
			cands = TurnModel{Turn: NegativeFirst}.Candidates(g, m, cur, cands[:0])
			c := cands[r.Intn(len(cands))]
			if c.Dir == topology.Plus {
				seenPositive = true
			} else if seenPositive {
				t.Fatalf("negative hop after a positive one")
			}
			m.Advance(g, c.Dim, c.Dir, g.Coord(cur, c.Dim), g.Parity(cur))
			cur = g.Neighbor(cur, c.Dim, c.Dir)
		}
	}
}
