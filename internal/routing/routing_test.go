package routing

import (
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

func node(g *topology.Grid, x, y int) int { return g.ID([]int{x, y}) }

func TestRegistry(t *testing.T) {
	for _, name := range []string{"ecube", "nlast", "2pn", "2pnsrc", "phop", "nhop", "nbc"} {
		a, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := Get("bogus"); err == nil {
		t.Error("Get(bogus) succeeded")
	}
	names := Names()
	if len(names) != 11 {
		t.Errorf("Names() = %v, want 11 algorithms (6 paper + 2pnsrc + ecube2x/4x + wfirst/negfirst)", names)
	}
	if len(All()) != 6 {
		t.Errorf("All() should list the paper's six algorithms, got %d", len(All()))
	}
}

func TestNumVCsMatchesPaper(t *testing.T) {
	torus := topology.NewTorus(16, 2)
	mesh := topology.NewMesh(16, 2)
	cases := []struct {
		alg        string
		torus, msh int
	}{
		{"phop", 17, 31}, // n*floor(k/2)+1 = 17 (paper); mesh diameter 30 + 1
		{"nhop", 9, 16},  // ceil(16/2)+1 = 9 (paper); mesh ceil(30/2)+1 = 16
		{"nbc", 9, 16},
		{"2pn", 4, 2}, // 2^n torus, 2^(n-1) mesh (paper sec 2.2)
		{"2pnsrc", 4, 2},
		{"ecube", 2, 1},
		{"nlast", 3, 1},
	}
	for _, tc := range cases {
		a, _ := Get(tc.alg)
		if got := a.NumVCs(torus); got != tc.torus {
			t.Errorf("%s on 16^2 torus: %d VCs, want %d", tc.alg, got, tc.torus)
		}
		if got := a.NumVCs(mesh); got != tc.msh {
			t.Errorf("%s on 16^2 mesh: %d VCs, want %d", tc.alg, got, tc.msh)
		}
	}
}

func TestCompatibility(t *testing.T) {
	odd := topology.NewTorus(5, 2)
	for _, name := range []string{"nhop", "nbc"} {
		a, _ := Get(name)
		if err := a.Compatible(odd); err == nil {
			t.Errorf("%s should reject an odd-radix torus", name)
		}
		if err := a.Compatible(topology.NewMesh(5, 2)); err != nil {
			t.Errorf("%s should accept a mesh: %v", name, err)
		}
	}
	for _, name := range []string{"ecube", "nlast", "2pn", "phop"} {
		a, _ := Get(name)
		if err := a.Compatible(odd); err != nil {
			t.Errorf("%s should accept an odd torus: %v", name, err)
		}
	}
	// The 2-D turn-model algorithms reject other dimensionalities (the cdg
	// analyzer exhibits rectangle cycles among the unrestricted dimensions
	// at n >= 3).
	threeD := topology.NewTorus(4, 3)
	oneD := topology.NewTorus(8, 1)
	for _, name := range []string{"nlast", "wfirst"} {
		a, _ := Get(name)
		if err := a.Compatible(threeD); err == nil {
			t.Errorf("%s should reject a 3-D grid", name)
		}
		if err := a.Compatible(oneD); err == nil {
			t.Errorf("%s should reject a 1-D grid", name)
		}
	}
	if err := (TurnModel{Turn: NegativeFirst}).Compatible(threeD); err != nil {
		t.Errorf("negfirst should accept 3-D grids: %v", err)
	}
}

func TestFullyAdaptiveFlags(t *testing.T) {
	want := map[string]bool{
		"ecube": false, "nlast": false,
		"2pn": true, "2pnsrc": true, "phop": true, "nhop": true, "nbc": true,
	}
	for name, fa := range want {
		a, _ := Get(name)
		if a.FullyAdaptive() != fa {
			t.Errorf("%s.FullyAdaptive() = %v, want %v", name, a.FullyAdaptive(), fa)
		}
	}
}

// walkPath drives m along the given coordinate path, returning the VC class
// the algorithm offers for each hop (requiring all candidates of the hop's
// chosen (dim,dir) to agree unless pick is provided).
func walkPath(t *testing.T, g *topology.Grid, a Algorithm, m *message.Message, path [][2]int) []int {
	t.Helper()
	var classes []int
	for i := 0; i+1 < len(path); i++ {
		from := node(g, path[i][0], path[i][1])
		to := node(g, path[i+1][0], path[i+1][1])
		var cands []Candidate
		cands = a.Candidates(g, m, from, cands)
		// Find the candidate matching the desired hop.
		var dim = -1
		var dir topology.Dir
		for d := 0; d < g.N(); d++ {
			for _, dd := range []topology.Dir{topology.Plus, topology.Minus} {
				if g.Neighbor(from, d, dd) == to {
					dim, dir = d, dd
				}
			}
		}
		if dim < 0 {
			t.Fatalf("path step %d: %v and %v not adjacent", i, path[i], path[i+1])
		}
		found := -1
		for _, c := range cands {
			if c.Dim == dim && c.Dir == dir {
				found = c.VC
				break
			}
		}
		if found < 0 {
			t.Fatalf("path step %d: hop d%d%v not among candidates %v", i, dim, dir, cands)
		}
		a.Allocated(g, m, from, Candidate{Dim: dim, Dir: dir, VC: found})
		classes = append(classes, found)
		m.Advance(g, dim, dir, g.Coord(from, dim), g.Parity(from))
	}
	return classes
}

// TestFigure2NegativeHop reproduces the paper's Figure 2 worked example: in
// a 6-ary 2-cube, a message from (4,4) to (2,2) following the path
// (4,4)->(3,4)->(3,3)->(2,3)->(2,2) reserves classes c0, c0, c1, c1.
func TestFigure2NegativeHop(t *testing.T) {
	g := topology.NewTorus(6, 2)
	m := message.New(g, 0, node(g, 4, 4), node(g, 2, 2), 16, 0, nil)
	NegativeHop{}.Init(g, m)
	classes := walkPath(t, g, NegativeHop{}, m, [][2]int{{4, 4}, {3, 4}, {3, 3}, {2, 3}, {2, 2}})
	want := []int{0, 0, 1, 1}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("nhop classes = %v, want %v (paper Figure 2)", classes, want)
		}
	}
}

// TestFigure2PositiveHop reproduces the paper's phop example on the same
// path: classes c0, c1, c2, c3.
func TestFigure2PositiveHop(t *testing.T) {
	g := topology.NewTorus(6, 2)
	m := message.New(g, 0, node(g, 4, 4), node(g, 2, 2), 16, 0, nil)
	PositiveHop{}.Init(g, m)
	classes := walkPath(t, g, PositiveHop{}, m, [][2]int{{4, 4}, {3, 4}, {3, 3}, {2, 3}, {2, 2}})
	want := []int{0, 1, 2, 3}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("phop classes = %v, want %v (paper sec. 2.1)", classes, want)
		}
	}
}

// randomWalk drives a message over a random admissible path, returning the
// chosen classes. It checks candidates are minimal and within VC bounds.
func randomWalk(t *testing.T, g *topology.Grid, a Algorithm, src, dst int, r *rng.Stream) []int {
	t.Helper()
	return visitWalk(t, g, a, src, dst, r, nil)
}

// visitWalk is randomWalk calling visit, if set, with the message and the
// candidates quoted at every node before the next hop is chosen.
func visitWalk(t *testing.T, g *topology.Grid, a Algorithm, src, dst int, r *rng.Stream,
	visit func(m *message.Message, cands []Candidate)) []int {
	t.Helper()
	m := message.New(g, 0, src, dst, 16, 0, func(int) bool { return r.Bernoulli(0.5) })
	a.Init(g, m)
	cur := src
	var classes []int
	var cands []Candidate
	numVC := a.NumVCs(g)
	for !m.Arrived() {
		cands = a.Candidates(g, m, cur, cands[:0])
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates for %v at %d", a.Name(), m, cur)
		}
		for _, c := range cands {
			if c.VC < 0 || c.VC >= numVC {
				t.Fatalf("%s: candidate class %d out of [0,%d)", a.Name(), c.VC, numVC)
			}
			if dir, ok := m.DirInDim(c.Dim); !ok || dir != c.Dir {
				t.Fatalf("%s: non-minimal candidate %v for %v", a.Name(), c, m)
			}
			if !g.HasChannel(cur, c.Dim, c.Dir) {
				t.Fatalf("%s: candidate %v uses a missing channel", a.Name(), c)
			}
		}
		if visit != nil {
			visit(m, cands)
		}
		c := cands[r.Intn(len(cands))]
		a.Allocated(g, m, cur, c)
		classes = append(classes, c.VC)
		m.Advance(g, c.Dim, c.Dir, g.Coord(cur, c.Dim), g.Parity(cur))
		cur = g.Neighbor(cur, c.Dim, c.Dir)
	}
	if cur != dst {
		t.Fatalf("%s: walk from %d ended at %d, want %d", a.Name(), src, cur, dst)
	}
	if m.HopsTaken != m.HopsTotal {
		t.Fatalf("%s: took %d hops, minimal is %d", a.Name(), m.HopsTaken, m.HopsTotal)
	}
	return classes
}

// TestRankMonotonicity checks the Lemma 1 precondition on every algorithm's
// class sequence along random walks: phop strictly increasing; nhop/nbc and
// nlast (wrap count) non-decreasing; ecube non-decreasing per dimension
// (witnessed by its global sequence within each dimension's run).
func TestRankMonotonicity(t *testing.T) {
	for _, topo := range []*topology.Grid{topology.NewTorus(16, 2), topology.NewMesh(8, 2), topology.NewTorus(4, 3)} {
		r := rng.New(7)
		for _, name := range []string{"phop", "nhop", "nbc", "nlast"} {
			a, _ := Get(name)
			if a.Compatible(topo) != nil {
				continue
			}
			for trial := 0; trial < 300; trial++ {
				src := r.Intn(topo.Nodes())
				dst := r.Intn(topo.Nodes())
				if src == dst {
					continue
				}
				classes := randomWalk(t, topo, a, src, dst, r)
				for i := 1; i < len(classes); i++ {
					switch name {
					case "phop":
						if classes[i] != classes[i-1]+1 {
							t.Fatalf("%s on %v: classes %v not strictly increasing by 1", name, topo, classes)
						}
					default:
						if classes[i] < classes[i-1] {
							t.Fatalf("%s on %v: classes %v decreased", name, topo, classes)
						}
					}
				}
			}
		}
	}
}

// TestNhopClassEqualsNegHops: the class of each hop equals the number of
// negative hops taken before it.
func TestNhopClassEqualsNegHops(t *testing.T) {
	g := topology.NewTorus(16, 2)
	r := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		src := r.Intn(g.Nodes())
		dst := r.Intn(g.Nodes())
		if src == dst {
			continue
		}
		m := message.New(g, 0, src, dst, 16, 0, func(int) bool { return r.Bernoulli(0.5) })
		NegativeHop{}.Init(g, m)
		cur := src
		var cands []Candidate
		for !m.Arrived() {
			cands = NegativeHop{}.Candidates(g, m, cur, cands[:0])
			for _, c := range cands {
				if c.VC != m.NegHops {
					t.Fatalf("nhop candidate class %d != NegHops %d", c.VC, m.NegHops)
				}
			}
			c := cands[r.Intn(len(cands))]
			m.Advance(g, c.Dim, c.Dir, g.Coord(cur, c.Dim), g.Parity(cur))
			cur = g.Neighbor(cur, c.Dim, c.Dir)
		}
	}
}

// TestNbcBonusFormula checks the paper's bonus-card formula and that the
// top class used never exceeds the scheme's class count.
func TestNbcBonusFormula(t *testing.T) {
	g := topology.NewTorus(16, 2)
	b := BonusCards{}
	// A diametrically opposite pair needs the full 8 negative hops -> 0
	// bonus cards.
	m := message.New(g, 0, node(g, 0, 0), node(g, 8, 8), 16, 0, func(int) bool { return true })
	if got := b.Bonus(g, m); got != 0 {
		t.Errorf("diameter message bonus = %d, want 0", got)
	}
	// A single-hop message from an even node takes 0 negative hops -> 8.
	m2 := message.New(g, 0, node(g, 0, 0), node(g, 1, 0), 16, 0, nil)
	if got := b.Bonus(g, m2); got != 8 {
		t.Errorf("1-hop even-source bonus = %d, want 8", got)
	}
	// A single-hop message from an odd node takes 1 negative hop -> 7.
	m3 := message.New(g, 0, node(g, 1, 0), node(g, 2, 0), 16, 0, nil)
	if got := b.Bonus(g, m3); got != 7 {
		t.Errorf("1-hop odd-source bonus = %d, want 7", got)
	}
}

// TestNbcClassBound: along any path the class stays within [0, maxNeg] and
// equals BonusStart + NegHops after the first hop.
func TestNbcClassBound(t *testing.T) {
	g := topology.NewTorus(16, 2)
	r := rng.New(11)
	maxClass := g.MaxNegativeHops()
	for trial := 0; trial < 300; trial++ {
		src := r.Intn(g.Nodes())
		dst := r.Intn(g.Nodes())
		if src == dst {
			continue
		}
		var want []int // BonusStart + NegHops before each hop past the first
		classes := visitWalk(t, g, BonusCards{}, src, dst, r, func(m *message.Message, _ []Candidate) {
			if m.HopsTaken > 0 {
				want = append(want, m.BonusStart+m.NegHops)
			}
		})
		for i, c := range classes {
			if c < 0 || c > maxClass {
				t.Fatalf("nbc class %d out of [0,%d]: %v", c, maxClass, classes)
			}
			if i > 0 && c != want[i-1] {
				t.Fatalf("nbc hop %d on class %d, want BonusStart + NegHops = %d: %v", i, c, want[i-1], classes)
			}
		}
	}
}

// TestHopSchemeClassIsArrivalState checks the Lemma 1 correspondence the
// hop schemes rest on: past the first hop, the class of a message's next
// virtual channel is the rank of the store-and-forward buffer it would
// occupy at its current node, a function of its hop counters alone. So every
// candidate quoted at a node has one class — HopsTaken for phop, NegHops
// for nhop, BonusStart + NegHops for nbc — whichever direction it names.
func TestHopSchemeClassIsArrivalState(t *testing.T) {
	rank := map[string]func(m *message.Message) int{
		"phop": func(m *message.Message) int { return m.HopsTaken },
		"nhop": func(m *message.Message) int { return m.NegHops },
		"nbc":  func(m *message.Message) int { return m.BonusStart + m.NegHops },
	}
	for _, topo := range []*topology.Grid{topology.NewTorus(16, 2), topology.NewMesh(8, 2), topology.NewTorus(4, 3)} {
		r := rng.New(13)
		for _, name := range []string{"phop", "nhop", "nbc"} {
			a, _ := Get(name)
			if a.Compatible(topo) != nil {
				continue
			}
			checked := 0
			for trial := 0; trial < 300; trial++ {
				src, dst := r.Intn(topo.Nodes()), r.Intn(topo.Nodes())
				if src == dst {
					continue
				}
				visitWalk(t, topo, a, src, dst, r, func(m *message.Message, cands []Candidate) {
					if m.HopsTaken == 0 {
						return
					}
					want := rank[name](m)
					for _, c := range cands {
						if c.VC != want {
							t.Fatalf("%s on %v: %v after %d hops quotes %v, want class %d on every candidate",
								name, topo, m, m.HopsTaken, cands, want)
						}
					}
					checked++
				})
			}
			if checked == 0 {
				t.Fatalf("%s on %v: no hop past the first was checked", name, topo)
			}
		}
	}
}

// TestNbcFirstHopSpread: the first hop of a short message offers every
// class up to the bonus count.
func TestNbcFirstHopSpread(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := message.New(g, 0, node(g, 0, 0), node(g, 1, 0), 16, 0, nil)
	b := BonusCards{}
	b.Init(g, m)
	var cands []Candidate
	cands = b.Candidates(g, m, m.Src, cands)
	seen := map[int]bool{}
	for _, c := range cands {
		seen[c.VC] = true
	}
	for vc := 0; vc <= 8; vc++ {
		if !seen[vc] {
			t.Errorf("first hop missing class %d (bonus should allow 0..8)", vc)
		}
	}
	// And Allocated latches the start class.
	b.Allocated(g, m, m.Src, Candidate{Dim: 0, Dir: topology.Plus, VC: 5})
	if m.BonusStart != 5 {
		t.Errorf("BonusStart = %d, want 5", m.BonusStart)
	}
}

func TestECubeSinglePathDimensionOrder(t *testing.T) {
	g := topology.NewTorus(16, 2)
	r := rng.New(13)
	for trial := 0; trial < 200; trial++ {
		src := r.Intn(g.Nodes())
		dst := r.Intn(g.Nodes())
		if src == dst {
			continue
		}
		m := message.New(g, 0, src, dst, 16, 0, func(int) bool { return r.Bernoulli(0.5) })
		ECube{}.Init(g, m)
		cur := src
		var cands []Candidate
		lastDim := -1
		for !m.Arrived() {
			cands = ECube{}.Candidates(g, m, cur, cands[:0])
			if len(cands) != 1 {
				t.Fatalf("ecube offered %d candidates, want exactly 1", len(cands))
			}
			c := cands[0]
			if c.Dim < lastDim {
				t.Fatalf("ecube went back to dimension %d after %d", c.Dim, lastDim)
			}
			lastDim = c.Dim
			m.Advance(g, c.Dim, c.Dir, g.Coord(cur, c.Dim), g.Parity(cur))
			cur = g.Neighbor(cur, c.Dim, c.Dir)
		}
		if cur != dst {
			t.Fatalf("ecube walk ended at %d, want %d", cur, dst)
		}
	}
}

func TestECubeDatelineClasses(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// Message wrapping in x: vc0 until the dateline, vc1 after.
	m := message.New(g, 0, node(g, 14, 0), node(g, 2, 0), 16, 0, nil)
	ECube{}.Init(g, m)
	classes := walkPath(t, g, ECube{}, m, [][2]int{{14, 0}, {15, 0}, {0, 0}, {1, 0}, {2, 0}})
	want := []int{0, 0, 1, 1}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("ecube dateline classes = %v, want %v", classes, want)
		}
	}
	// On a mesh everything is class 0.
	mesh := topology.NewMesh(16, 2)
	mm := message.New(mesh, 0, mesh.ID([]int{0, 0}), mesh.ID([]int{3, 0}), 16, 0, nil)
	var cands []Candidate
	cands = ECube{}.Candidates(mesh, mm, mm.Src, cands)
	if cands[0].VC != 0 {
		t.Errorf("mesh ecube class = %d, want 0", cands[0].VC)
	}
}

// TestNorthLastRestriction checks the defining property: a message that
// must travel north (Minus in the highest dimension) has no dimension-1
// candidates until every other dimension is corrected, and once heading
// north it continues north only — while south-bound messages are fully
// adaptive.
func TestNorthLastRestriction(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// Paper example (sec 2.3): (3,3) -> (1,1) in a 10^2 grid with (0,0) the
	// upper-left node: the path must correct dimension 0 first. Here: needs
	// -2 in both dims; north = Minus in dim 1.
	m := message.New(g, 0, node(g, 3, 3), node(g, 1, 1), 16, 0, nil)
	TurnModel{Turn: NorthLast}.Init(g, m)
	var cands []Candidate
	cands = TurnModel{Turn: NorthLast}.Candidates(g, m, node(g, 3, 3), cands)
	for _, c := range cands {
		if c.Dim == 1 {
			t.Fatalf("north-bound message offered a dim-1 hop before dim 0 corrected: %v", cands)
		}
	}
	// After correcting dim 0, only north remains.
	m2 := message.New(g, 0, node(g, 1, 3), node(g, 1, 1), 16, 0, nil)
	cands = TurnModel{Turn: NorthLast}.Candidates(g, m2, node(g, 1, 3), cands[:0])
	if len(cands) != 1 || cands[0].Dim != 1 || cands[0].Dir != topology.Minus {
		t.Fatalf("corrected message should go north only, got %v", cands)
	}
	// South-bound messages are adaptive in both dims.
	m3 := message.New(g, 0, node(g, 3, 3), node(g, 5, 5), 16, 0, nil)
	cands = TurnModel{Turn: NorthLast}.Candidates(g, m3, node(g, 3, 3), cands[:0])
	if len(cands) != 2 {
		t.Fatalf("south-bound message should have 2 candidates, got %v", cands)
	}
}

// TestNorthLastWrapClasses: classes count dateline crossings across all
// dimensions.
func TestNorthLastWrapClasses(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// (15,15) -> (1,1): +2 in both dims, crossing both datelines.
	m := message.New(g, 0, node(g, 15, 15), node(g, 1, 1), 16, 0, nil)
	TurnModel{Turn: NorthLast}.Init(g, m)
	classes := walkPath(t, g, TurnModel{Turn: NorthLast}, m, [][2]int{{15, 15}, {0, 15}, {0, 0}, {1, 0}, {1, 1}})
	want := []int{0, 1, 2, 2}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("nlast wrap classes = %v, want %v", classes, want)
		}
	}
}

// TestTwoPowerNTagMatchesEquationOne checks eq. (1) at the current node,
// including the free bits of corrected dimensions.
func TestTwoPowerNTagMatchesEquationOne(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// Both dims uncorrected, x: 2<5 -> bit0=1; y: 9>4 -> bit1=0. Tag = 01.
	m := message.New(g, 0, node(g, 2, 9), node(g, 5, 4), 16, 0, nil)
	var cands []Candidate
	cands = TwoPowerN{}.Candidates(g, m, node(g, 2, 9), cands)
	if len(cands) != 2 {
		t.Fatalf("two uncorrected dims: want 2 candidates, got %v", cands)
	}
	for _, c := range cands {
		if c.VC != 1 {
			t.Fatalf("tag should be 0b01 = 1, got %v", cands)
		}
	}
	// One corrected dim: free bit doubles the tag set.
	m2 := message.New(g, 0, node(g, 2, 4), node(g, 5, 4), 16, 0, nil)
	cands = TwoPowerN{}.Candidates(g, m2, node(g, 2, 4), cands[:0])
	if len(cands) != 2 {
		t.Fatalf("corrected dim should offer the free bit: got %v", cands)
	}
	seen := map[int]bool{}
	for _, c := range cands {
		if c.Dim != 0 {
			t.Fatalf("only dim 0 should be offered, got %v", cands)
		}
		seen[c.VC] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("want tags {1,3} (bit0 forced 1, bit1 free), got %v", cands)
	}
}

// TestTwoPowerNTagFlipsAtWrap: crossing a wraparound link flips the bit
// (the property that breaks ring cycles).
func TestTwoPowerNTagFlipsAtWrap(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := message.New(g, 0, node(g, 14, 9), node(g, 2, 9), 16, 0, nil) // wraps +x
	var cands []Candidate
	// At col 14: 14 > 2 -> bit0 = 0.
	cands = TwoPowerN{}.Candidates(g, m, node(g, 14, 9), cands)
	forced := cands[0].VC & 1
	if forced != 0 {
		t.Fatalf("before wrap: bit0 = %d, want 0", forced)
	}
	m.Advance(g, 0, topology.Plus, 14, g.Parity(node(g, 14, 9)))
	m.Advance(g, 0, topology.Plus, 15, g.Parity(node(g, 15, 9)))
	// Now at col 0: 0 < 2 -> bit0 = 1.
	cands = TwoPowerN{}.Candidates(g, m, node(g, 0, 9), cands[:0])
	if cands[0].VC&1 != 1 {
		t.Fatalf("after wrap: bit0 = %d, want 1", cands[0].VC&1)
	}
}

// TestTwoPowerNSourceTagFixed: the source variant keeps its tag for the
// whole journey.
func TestTwoPowerNSourceTagFixed(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := message.New(g, 0, node(g, 14, 9), node(g, 2, 9), 16, 0, nil)
	TwoPowerN{SourceTag: true}.Init(g, m)
	if m.TagForced&1 != 0 { // 14 > 2 at the source
		t.Fatalf("source tag bit0 = %d, want 0", m.TagForced&1)
	}
	m.Advance(g, 0, topology.Plus, 14, 0)
	m.Advance(g, 0, topology.Plus, 15, 1)
	var cands []Candidate
	cands = TwoPowerN{SourceTag: true}.Candidates(g, m, node(g, 0, 9), cands)
	for _, c := range cands {
		if c.VC&1 != 0 {
			t.Fatalf("source-tag variant changed its tag after the wrap: %v", cands)
		}
	}
}

// TestFullAdaptivityReachesAllMinimalNeighbours: fully adaptive algorithms
// must offer every uncorrected dimension at every step.
func TestFullAdaptivityReachesAllMinimalNeighbours(t *testing.T) {
	g := topology.NewTorus(16, 2)
	r := rng.New(17)
	for _, name := range []string{"phop", "nhop", "nbc", "2pn", "2pnsrc"} {
		a, _ := Get(name)
		for trial := 0; trial < 200; trial++ {
			src := r.Intn(g.Nodes())
			dst := r.Intn(g.Nodes())
			if src == dst {
				continue
			}
			m := message.New(g, 0, src, dst, 16, 0, func(int) bool { return r.Bernoulli(0.5) })
			a.Init(g, m)
			var cands []Candidate
			cands = a.Candidates(g, m, src, cands)
			dims := map[int]bool{}
			for _, c := range cands {
				dims[c.Dim] = true
			}
			want := 0
			for dim := 0; dim < g.N(); dim++ {
				if m.Remaining[dim] != 0 {
					want++
				}
			}
			if len(dims) != want {
				t.Fatalf("%s offers dims %v, want all %d uncorrected", name, dims, want)
			}
		}
	}
}

func TestCongestionClasses(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// phop/nhop: single class 0.
	for _, name := range []string{"phop", "nhop"} {
		a, _ := Get(name)
		m := message.New(g, 0, node(g, 0, 0), node(g, 5, 5), 16, 0, nil)
		a.Init(g, m)
		if m.Class != 0 {
			t.Errorf("%s class = %d, want 0", name, m.Class)
		}
	}
	// nbc: class = bonus count.
	m := message.New(g, 0, node(g, 0, 0), node(g, 1, 0), 16, 0, nil)
	BonusCards{}.Init(g, m)
	if m.Class != 8 {
		t.Errorf("nbc class = %d, want 8 (its bonus)", m.Class)
	}
	// 2pn: class = forced tag.
	m2 := message.New(g, 0, node(g, 2, 9), node(g, 5, 4), 16, 0, nil)
	TwoPowerN{}.Init(g, m2)
	if m2.Class != 1 {
		t.Errorf("2pn class = %d, want 1", m2.Class)
	}
	// ecube: first-hop (dim,dir).
	m3 := message.New(g, 0, node(g, 3, 3), node(g, 1, 1), 16, 0, nil)
	ECube{}.Init(g, m3)
	if m3.Class != 0<<1|int(topology.Minus) {
		t.Errorf("ecube class = %d, want dim0/minus", m3.Class)
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{Dim: 1, Dir: topology.Plus, VC: 3}
	if c.String() != "d1+ vc3" {
		t.Errorf("Candidate.String() = %q", c.String())
	}
}

func TestPolicies(t *testing.T) {
	r := rng.New(19)
	cands := []Candidate{{VC: 0}, {VC: 1}, {VC: 2}}
	scores := []int{5, 1, 5}

	if got := (FirstFreePolicy{}).Select(cands, scores, r); got != 0 {
		t.Errorf("first policy picked %d", got)
	}
	if got := (LeastCongestedPolicy{}).Select(cands, scores, r); got != 1 {
		t.Errorf("least-congested picked %d, want 1", got)
	}
	// Random covers all indices eventually.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[(RandomPolicy{}).Select(cands, scores, r)] = true
	}
	if len(seen) != 3 {
		t.Errorf("random policy only hit %v", seen)
	}
	// Least-congested breaks ties over both minima.
	tie := []int{2, 7, 2}
	seen = map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[(LeastCongestedPolicy{}).Select(cands, tie, r)] = true
	}
	if !seen[0] || !seen[2] || seen[1] {
		t.Errorf("tie break hit %v, want {0,2}", seen)
	}
}

func TestGetPolicy(t *testing.T) {
	for _, name := range []string{"random", "first", "leastcongested", ""} {
		if _, err := GetPolicy(name); err != nil {
			t.Errorf("GetPolicy(%q): %v", name, err)
		}
	}
	if _, err := GetPolicy("nope"); err == nil {
		t.Error("GetPolicy(nope) succeeded")
	}
}
