package cdg

import (
	"strings"
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
)

// TestPaperAlgorithmsAcyclic is the formal deadlock-freedom check: the
// non-adaptive, partially adaptive and hop-scheme algorithms must have an
// acyclic plain channel-dependency graph (the strongest, Dally–Seitz
// criterion) on exact small instances of the topologies the simulator runs
// them on. The fully adaptive 2pn is covered separately: adaptive routing
// can be deadlock-free with a cyclic plain CDG (Duato), and
// TestTwoPowerNEscapeAcyclic checks its escape subfunction instead.
func TestPaperAlgorithmsAcyclic(t *testing.T) {
	grids := []*topology.Grid{
		topology.NewTorus(4, 2),
		topology.NewTorus(6, 2),
		topology.NewMesh(4, 2),
		topology.NewMesh(5, 2),
		topology.NewTorus(4, 3),
	}
	algs := []string{"ecube", "nlast", "phop", "nhop", "nbc", "ecube2x", "wfirst", "negfirst"}
	for _, g := range grids {
		for _, name := range algs {
			alg, err := routing.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if alg.Compatible(g) != nil {
				continue // nhop/nbc on odd grids; nlast/wfirst beyond 2-D
			}
			res, err := Analyze(g, alg)
			if err != nil {
				t.Fatalf("%s on %v: %v", name, g, err)
			}
			if !res.Acyclic() {
				t.Errorf("%s on %v has a dependency cycle:\n  %s", name, g, res.DescribeCycle(g))
			}
			if res.Edges == 0 {
				t.Errorf("%s on %v produced no dependency edges", name, g)
			}
		}
	}
}

// pinned restricts a 2pn-family algorithm to the single tag whose free
// bits are zero: one virtual channel per admissible physical hop, the
// escape subfunction of the adaptive scheme. Per Duato's theory, a
// connected routing subfunction with acyclic dependencies makes the
// enclosing adaptive algorithm deadlock-free: a blocked 2pn header always
// has its pinned-tag candidate among its choices. For 2pnsrc it pins the
// source-fixed tag's free bits, the strongest subfunction available.
type pinned struct{ routing.Algorithm }

func (p pinned) Name() string { return p.Algorithm.Name() + "-pinned" }

func (p pinned) Candidates(g *topology.Grid, m *message.Message, node int, dst []routing.Candidate) []routing.Candidate {
	all := p.Algorithm.Candidates(g, m, node, nil)
	// Keep, per (dim, dir), the minimum tag = forced bits with free bits 0.
	best := map[[2]int]routing.Candidate{}
	for _, c := range all {
		key := [2]int{c.Dim, int(c.Dir)}
		if cur, ok := best[key]; !ok || c.VC < cur.VC {
			best[key] = c
		}
	}
	for _, c := range all {
		key := [2]int{c.Dim, int(c.Dir)}
		if best[key] == c {
			dst = append(dst, c)
		}
	}
	return dst
}

// TestTwoPowerNMeshEscapeAcyclic: on a MESH, the pinned-tag subfunction of
// 2pn is acyclic — this is Dally's 2^(n-1)-channel mesh result, formally
// verified, and by Duato's theory it covers the full adaptive mesh scheme.
func TestTwoPowerNMeshEscapeAcyclic(t *testing.T) {
	for _, g := range []*topology.Grid{
		topology.NewMesh(4, 2),
		topology.NewMesh(5, 2),
	} {
		res, err := Analyze(g, pinned{routing.TwoPowerN{}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Acyclic() {
			t.Errorf("pinned 2pn on %v has a cycle:\n  %s", g, res.DescribeCycle(g))
		}
	}
}

// TestTwoPowerNTorusCDGCyclic documents a negative finding of this
// reproduction: on TORI, both readings of eq. (1) — per-hop and
// source-fixed tags, full candidate sets or pinned free bits — have
// channel-dependency cycles, so the paper's claimed 2^n-channel torus
// scheme admits no simple Dally–Seitz or pinned-escape proof. The two
// variants nonetheless behave very differently in practice: 45-config
// drain stress never wedges the per-hop variant (a CDG cycle is necessary
// but not sufficient for deadlock), while the source-tag variant genuinely
// deadlocks (see network.TestSourceTag2pnCanDeadlock).
func TestTwoPowerNTorusCDGCyclic(t *testing.T) {
	g := topology.NewTorus(4, 2)
	for name, alg := range map[string]routing.Algorithm{
		"2pn":           routing.TwoPowerN{},
		"2pn-pinned":    pinned{routing.TwoPowerN{}},
		"2pnsrc-pinned": pinned{routing.TwoPowerN{SourceTag: true}},
	} {
		res, err := Analyze(g, alg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Acyclic() {
			t.Errorf("%s on a torus unexpectedly acyclic — update the docs if the scheme changed", name)
		}
	}
}

// TestSourceTag2pnCyclicOnTorus is the reproduction hypothesis of
// EXPERIMENTS.md made formal: the literal source-computed eq. (1) tag has
// dependency cycles on a torus (ring cycles within one tag class)...
func TestSourceTag2pnCyclicOnTorus(t *testing.T) {
	g := topology.NewTorus(4, 2)
	alg, _ := routing.Get("2pnsrc")
	res, err := Analyze(g, alg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acyclic() {
		t.Fatal("2pnsrc on a torus should have a dependency cycle")
	}
	if len(res.Cycle) < 3 {
		t.Errorf("suspiciously short cycle: %v", res.Cycle)
	}
}

// TestSourceTagMeshContrast: on a mesh both variants' pinned subfunctions
// coincide with Dally's scheme and verify acyclic; the torus is where they
// diverge behaviourally (see TestTwoPowerNTorusCDGCyclic).
func TestSourceTagMeshContrast(t *testing.T) {
	g := topology.NewMesh(4, 2)
	src, err := Analyze(g, pinned{routing.TwoPowerN{SourceTag: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !src.Acyclic() {
		t.Errorf("pinned source tag on a mesh should be acyclic:\n  %s", src.DescribeCycle(g))
	}
}

// naiveDOR is dimension-order routing with a single virtual channel — the
// textbook non-example that deadlocks on any ring.
type naiveDOR struct{}

func (naiveDOR) Name() string                                                       { return "naive-dor" }
func (naiveDOR) FullyAdaptive() bool                                                { return false }
func (naiveDOR) NumVCs(*topology.Grid) int                                          { return 1 }
func (naiveDOR) Compatible(*topology.Grid) error                                    { return nil }
func (naiveDOR) Init(*topology.Grid, *message.Message)                              {}
func (naiveDOR) Allocated(*topology.Grid, *message.Message, int, routing.Candidate) {}
func (naiveDOR) Candidates(g *topology.Grid, m *message.Message, node int, dst []routing.Candidate) []routing.Candidate {
	for dim := 0; dim < g.N(); dim++ {
		if dir, ok := m.DirInDim(dim); ok {
			return append(dst, routing.Candidate{Dim: dim, Dir: dir, VC: 0})
		}
	}
	panic("arrived")
}

// TestNaiveDORCyclicOnTorusAcyclicOnMesh: the analyzer reproduces the
// textbook facts that motivated virtual channels in the first place.
func TestNaiveDORCyclicOnTorusAcyclicOnMesh(t *testing.T) {
	torus, err := Analyze(topology.NewTorus(4, 2), naiveDOR{})
	if err != nil {
		t.Fatal(err)
	}
	if torus.Acyclic() {
		t.Error("single-VC dimension-order routing on a torus must be cyclic")
	}
	mesh, err := Analyze(topology.NewMesh(4, 2), naiveDOR{})
	if err != nil {
		t.Fatal(err)
	}
	if !mesh.Acyclic() {
		t.Errorf("dimension-order routing on a mesh must be acyclic, found:\n  %s",
			mesh.DescribeCycle(topology.NewMesh(4, 2)))
	}
}

// naiveAdaptive is minimal fully adaptive routing with one virtual channel:
// cyclic even on a mesh (the rectangle/turn cycles the turn model removes).
type naiveAdaptive struct{ naiveDOR }

func (naiveAdaptive) Name() string { return "naive-adaptive" }
func (naiveAdaptive) Candidates(g *topology.Grid, m *message.Message, node int, dst []routing.Candidate) []routing.Candidate {
	for dim := 0; dim < g.N(); dim++ {
		if dir, ok := m.DirInDim(dim); ok {
			dst = append(dst, routing.Candidate{Dim: dim, Dir: dir, VC: 0})
		}
	}
	return dst
}

func TestNaiveAdaptiveCyclicEvenOnMesh(t *testing.T) {
	res, err := Analyze(topology.NewMesh(4, 2), naiveAdaptive{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acyclic() {
		t.Error("unrestricted adaptive routing with one VC should be cyclic on a mesh")
	}
}

// TestNLastDatelineOverlayCyclic demonstrates the bug DESIGN.md documents:
// north-last over per-dimension dateline classes (instead of wrap-count
// classes) has spiral cycles on a torus. This is the discipline the
// simulator originally wedged on.
type nlastDateline struct{ naiveDOR }

func (nlastDateline) Name() string              { return "nlast-dateline" }
func (nlastDateline) NumVCs(*topology.Grid) int { return 2 }
func (nlastDateline) Candidates(g *topology.Grid, m *message.Message, node int, dst []routing.Candidate) []routing.Candidate {
	last := g.N() - 1
	goingNorth := m.Remaining[last] < 0
	for dim := 0; dim < g.N(); dim++ {
		dir, ok := m.DirInDim(dim)
		if !ok {
			continue
		}
		if goingNorth && dim == last && m.HopsLeft() != -m.Remaining[last] {
			continue
		}
		vc := 0
		if m.Crossed[dim] {
			vc = 1
		}
		dst = append(dst, routing.Candidate{Dim: dim, Dir: dir, VC: vc})
	}
	return dst
}

func TestNLastDatelineOverlayCyclic(t *testing.T) {
	res, err := Analyze(topology.NewTorus(4, 2), nlastDateline{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acyclic() {
		t.Error("per-dimension dateline north-last should be cyclic on a torus (the spiral bug)")
	}
}

func TestResultRendering(t *testing.T) {
	g := topology.NewTorus(4, 2)
	alg, _ := routing.Get("phop")
	res, err := Analyze(g, alg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "ACYCLIC") {
		t.Errorf("String = %q", res.String())
	}
	if res.DescribeCycle(g) != "(acyclic)" {
		t.Errorf("DescribeCycle = %q", res.DescribeCycle(g))
	}
	bad, _ := Analyze(g, naiveDOR{})
	if !strings.Contains(bad.String(), "CYCLE") {
		t.Errorf("String = %q", bad.String())
	}
	if !strings.Contains(bad.DescribeCycle(g), "->") {
		t.Errorf("cycle description = %q", bad.DescribeCycle(g))
	}
}

func TestAnalyzeRejectsIncompatible(t *testing.T) {
	alg, _ := routing.Get("nhop")
	if _, err := Analyze(topology.NewTorus(5, 2), alg); err == nil {
		t.Error("nhop on an odd torus should be rejected")
	}
}

// TestVCDescribe covers the VC pretty-printer.
func TestVCDescribe(t *testing.T) {
	g := topology.NewTorus(4, 2)
	v := VC{Channel: g.ChannelIndex(5, 1, topology.Minus), Class: 3}
	if got := v.Describe(g); got != "n5 d1- vc3" {
		t.Errorf("Describe = %q", got)
	}
}
