package traffic

import (
	"math"
	"strings"
	"testing"

	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

// checkDestProbSums verifies that DestProb over all destinations sums to
// the pattern's per-source generation probability (1 for non-permutations).
func checkDestProbSums(t *testing.T, g *topology.Grid, p Pattern, want func(src int) float64) {
	t.Helper()
	for src := 0; src < g.Nodes(); src++ {
		sum := 0.0
		for dst := 0; dst < g.Nodes(); dst++ {
			pr := p.DestProb(src, dst)
			if pr < 0 || pr > 1 {
				t.Fatalf("%s: DestProb(%d,%d) = %v out of range", p.Name(), src, dst, pr)
			}
			if dst == src && pr != 0 {
				t.Fatalf("%s: self-traffic probability %v at %d", p.Name(), pr, src)
			}
			sum += pr
		}
		if w := want(src); math.Abs(sum-w) > 1e-9 {
			t.Fatalf("%s: probabilities from %d sum to %v, want %v", p.Name(), src, sum, w)
		}
	}
}

// checkDestMatchesProb draws many destinations and compares the empirical
// distribution against DestProb for a few sources.
func checkDestMatchesProb(t *testing.T, g *topology.Grid, p Pattern, sources []int) {
	t.Helper()
	r := rng.New(77)
	const draws = 60000
	for _, src := range sources {
		counts := make([]int, g.Nodes())
		made := 0
		for i := 0; i < draws; i++ {
			d := p.Dest(src, r)
			if d < 0 {
				continue
			}
			if d == src {
				t.Fatalf("%s: Dest returned the source", p.Name())
			}
			counts[d]++
			made++
		}
		for dst, c := range counts {
			want := p.DestProb(src, dst) * float64(made)
			got := float64(c)
			tol := 5*math.Sqrt(want+1) + 1
			if math.Abs(got-want) > tol {
				t.Errorf("%s: src %d dst %d: %v draws, want about %v", p.Name(), src, dst, got, want)
			}
		}
	}
}

func TestUniform(t *testing.T) {
	g := topology.NewTorus(16, 2)
	u := NewUniform(g)
	checkDestProbSums(t, g, u, func(int) float64 { return 1 })
	checkDestMatchesProb(t, g, u, []int{0, 100, 255})
	if u.Name() != "uniform" {
		t.Errorf("Name = %q", u.Name())
	}
}

func TestHotspotPaperNumbers(t *testing.T) {
	// Paper sec. 3: with 4% hotspot traffic on 16^2, a message goes to the
	// hot node with probability 0.0438 and to any other node with 0.0038.
	g := topology.NewTorus(16, 2)
	h := NewHotspot(g, 255, 0.04)
	pHot := h.DestProb(0, 255)
	if math.Abs(pHot-0.0438) > 0.0001 {
		t.Errorf("P(hot) = %.5f, want 0.0438", pHot)
	}
	pOther := h.DestProb(0, 17)
	if math.Abs(pOther-0.0038) > 0.0001 {
		t.Errorf("P(other) = %.5f, want 0.0038", pOther)
	}
	// Ratio about 11.5x, as the paper says.
	if ratio := pHot / pOther; math.Abs(ratio-11.6) > 0.3 {
		t.Errorf("hot/other ratio = %.2f, want about 11.5", ratio)
	}
	checkDestProbSums(t, g, h, func(int) float64 { return 1 })
	checkDestMatchesProb(t, g, h, []int{0, 255})
}

func TestHotspotValidation(t *testing.T) {
	g := topology.NewTorus(16, 2)
	for _, f := range []func(){
		func() { NewHotspot(g, -1, 0.04) },
		func() { NewHotspot(g, 256, 0.04) },
		func() { NewHotspot(g, 0, -0.1) },
		func() { NewHotspot(g, 0, 1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid hotspot construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestLocalPaperWeights(t *testing.T) {
	// Paper footnote 3: for the 7x7 local pattern the hop classes are
	// 1..6 with weights 0.0833, 0.1667, 0.25, 0.25, 0.1667, 0.0833.
	g := topology.NewTorus(16, 2)
	l := NewLocal(g, 3)
	wl := NewBernoulli(g, l, 0, 1)
	w := wl.HopClassWeights()
	want := []float64{0, 0.0833, 0.1667, 0.25, 0.25, 0.1667, 0.0833}
	for i, ww := range want {
		if math.Abs(w[i]-ww) > 0.0001 {
			t.Errorf("hop class %d weight = %.4f, want %.4f", i, w[i], ww)
		}
	}
	for i := len(want); i < len(w); i++ {
		if w[i] != 0 {
			t.Errorf("hop class %d weight = %v, want 0", i, w[i])
		}
	}
	// Mean distance 3.5.
	if md := wl.MeanDistance(); math.Abs(md-3.5) > 1e-9 {
		t.Errorf("local mean distance = %v, want 3.5", md)
	}
	checkDestProbSums(t, g, l, func(int) float64 { return 1 })
	checkDestMatchesProb(t, g, l, []int{0, 136})
}

func TestLocalMesh(t *testing.T) {
	g := topology.NewMesh(8, 2)
	l := NewLocal(g, 2)
	checkDestProbSums(t, g, l, func(int) float64 { return 1 })
	checkDestMatchesProb(t, g, l, []int{0, 27})
	// A corner node's box is clipped to 3x3 - 1 = 8 destinations.
	if pr := l.DestProb(0, g.ID([]int{1, 1})); math.Abs(pr-1.0/8) > 1e-12 {
		t.Errorf("corner box probability = %v, want 1/8", pr)
	}
}

func TestLocalValidation(t *testing.T) {
	g := topology.NewTorus(16, 2)
	for _, f := range []func(){
		func() { NewLocal(g, 0) },
		func() { NewLocal(g, 8) }, // 2*8 >= 16
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid local construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestTranspose(t *testing.T) {
	g := topology.NewTorus(16, 2)
	tr := NewTranspose(g)
	// (3,5) -> (5,3): coordinates are (x=3, y=5) reversed.
	src := g.ID([]int{3, 5})
	want := g.ID([]int{5, 3})
	if got := tr.Dest(src, rng.New(1)); got != want {
		t.Errorf("transpose dest = %d, want %d", got, want)
	}
	// Diagonal nodes generate nothing.
	if got := tr.Dest(g.ID([]int{4, 4}), rng.New(1)); got != -1 {
		t.Errorf("diagonal transpose dest = %d, want -1", got)
	}
	checkDestProbSums(t, g, tr, func(src int) float64 {
		if g.Coord(src, 0) == g.Coord(src, 1) {
			return 0
		}
		return 1
	})
	// Generation rate: 16 diagonal nodes idle of 256.
	if gr := GenerationRate(g, tr); math.Abs(gr-240.0/256) > 1e-12 {
		t.Errorf("transpose generation rate = %v, want 240/256", gr)
	}
}

func TestBitReversal(t *testing.T) {
	g := topology.NewTorus(16, 2)
	b := NewBitReversal(g)
	// Node 1 (binary 00000001) -> 128 (10000000).
	if got := b.Dest(1, rng.New(1)); got != 128 {
		t.Errorf("bitrev(1) = %d, want 128", got)
	}
	// Palindromic id maps to itself -> no message.
	if got := b.Dest(0, rng.New(1)); got != -1 {
		t.Errorf("bitrev(0) = %d, want -1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("bit reversal on non-power-of-two did not panic")
		}
	}()
	NewBitReversal(topology.NewTorus(6, 2))
}

func TestComplement(t *testing.T) {
	g := topology.NewTorus(16, 2)
	c := NewComplement(g)
	src := g.ID([]int{3, 5})
	want := g.ID([]int{11, 13})
	if got := c.Dest(src, rng.New(1)); got != want {
		t.Errorf("complement dest = %d, want %d", got, want)
	}
	// Every message travels the full diameter.
	wl := NewBernoulli(g, c, 0, 1)
	if md := wl.MeanDistance(); md != float64(g.Diameter()) {
		t.Errorf("complement mean distance = %v, want %d", md, g.Diameter())
	}
	// Mesh complement mirrors.
	m := topology.NewMesh(4, 2)
	cm := NewComplement(m)
	if got := cm.Dest(m.ID([]int{0, 1}), rng.New(1)); got != m.ID([]int{3, 2}) {
		t.Errorf("mesh complement = %d", got)
	}
}

func TestParse(t *testing.T) {
	g := topology.NewTorus(16, 2)
	cases := map[string]string{
		"uniform":          "uniform",
		"hotspot":          "hotspot(255,4.0%)",
		"hotspot:0.08":     "hotspot(255,8.0%)",
		"hotspot:0.08:100": "hotspot(100,8.0%)",
		"local":            "local(r=3)",
		"local:2":          "local(r=2)",
		"transpose":        "transpose",
		"bitrev":           "bitrev",
		"complement":       "complement",
	}
	for spec, wantName := range cases {
		p, err := Parse(g, spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if p.Name() != wantName {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, p.Name(), wantName)
		}
	}
	for _, bad := range []string{"nope", "hotspot:x", "hotspot:0.04:y", "local:z"} {
		if _, err := Parse(g, bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestUniformMeanDistanceMatchesTopology(t *testing.T) {
	g := topology.NewTorus(16, 2)
	wl := NewBernoulli(g, NewUniform(g), 0.01, 1)
	if md, want := wl.MeanDistance(), g.MeanUniformDistance(); math.Abs(md-want) > 1e-9 {
		t.Errorf("uniform workload mean distance %v, topology says %v", md, want)
	}
	w := wl.HopClassWeights()
	// Paper footnote 3: hop class 1 has weight 4/255 = 0.0157, class 16 has
	// 1/255 = 0.0039.
	if math.Abs(w[1]-0.0157) > 0.0001 {
		t.Errorf("hop class 1 weight %.4f, want 0.0157", w[1])
	}
	if math.Abs(w[16]-0.0039) > 0.0001 {
		t.Errorf("hop class 16 weight %.4f, want 0.0039", w[16])
	}
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestBernoulliArrivalRate(t *testing.T) {
	g := topology.NewTorus(16, 2)
	const rate = 0.02
	wl := NewBernoulli(g, NewUniform(g), rate, 9)
	var arrivals []Arrival
	total := 0
	const cycles = 5000
	for c := int64(0); c < cycles; c++ {
		arrivals = wl.Arrivals(c, arrivals[:0])
		for _, a := range arrivals {
			if a.Src == a.Dst {
				t.Fatal("self-directed arrival")
			}
		}
		total += len(arrivals)
	}
	want := rate * float64(g.Nodes()) * cycles
	if math.Abs(float64(total)-want) > 5*math.Sqrt(want) {
		t.Errorf("arrivals = %d, want about %.0f", total, want)
	}
}

func TestBernoulliReseedChangesDraw(t *testing.T) {
	g := topology.NewTorus(16, 2)
	a := NewBernoulli(g, NewUniform(g), 0.05, 1)
	b := NewBernoulli(g, NewUniform(g), 0.05, 1)
	var bufA, bufB []Arrival
	bufA = a.Arrivals(0, bufA)
	bufB = b.Arrivals(0, bufB)
	if len(bufA) != len(bufB) {
		t.Fatal("same seed should give identical arrivals")
	}
	b.Reseed(999)
	bufA = a.Arrivals(1, bufA[:0])
	bufB = b.Arrivals(1, bufB[:0])
	same := len(bufA) == len(bufB)
	if same {
		for i := range bufA {
			if bufA[i] != bufB[i] {
				same = false
				break
			}
		}
	}
	if same && len(bufA) > 0 {
		t.Error("reseed did not change the arrival stream")
	}
}

func TestBernoulliRateValidation(t *testing.T) {
	g := topology.NewTorus(16, 2)
	defer func() {
		if recover() == nil {
			t.Error("rate > 1 did not panic")
		}
	}()
	NewBernoulli(g, NewUniform(g), 1.5, 1)
}

// TestWithRateMatchesNewBernoulli: deriving the real workload from a
// zero-rate probe (as core.Run does) is indistinguishable from building it —
// same statistics, same arrival stream before and after a reseed — and leaves
// the probe as it was.
func TestWithRateMatchesNewBernoulli(t *testing.T) {
	g := topology.NewTorus(8, 2)
	for _, p := range []Pattern{NewUniform(g), NewHotspot(g, 21, 0.2)} {
		for _, rate := range []float64{0, 0.07, 1} {
			probe := NewBernoulli(g, p, 0, 5)
			got, want := probe.WithRate(rate, 9), NewBernoulli(g, p, rate, 9)
			if got.Name() != want.Name() || got.Rate() != rate || got.MeanDistance() != want.MeanDistance() {
				t.Fatalf("%s: derived workload differs from a built one", want.Name())
			}
			for i, w := range want.HopClassWeights() {
				if got.HopClassWeights()[i] != w {
					t.Fatalf("%s: hop-class weight %d differs", want.Name(), i)
				}
			}
			var a, b []Arrival
			for cycle := int64(0); cycle < 60; cycle++ {
				if cycle == 30 {
					got.Reseed(77)
					want.Reseed(77)
				}
				a, b = got.Arrivals(cycle, a[:0]), want.Arrivals(cycle, b[:0])
				if len(a) != len(b) {
					t.Fatalf("%s: cycle %d: %d arrivals, want %d", want.Name(), cycle, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: cycle %d: arrival %d is %+v, want %+v", want.Name(), cycle, i, a[i], b[i])
					}
				}
			}
			if probe.Rate() != 0 || len(probe.Arrivals(0, nil)) != 0 {
				t.Fatalf("%s: WithRate changed the probe", want.Name())
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("rate > 1 did not panic")
		}
	}()
	NewBernoulli(g, NewUniform(g), 0, 1).WithRate(1.5, 1)
}

func TestGenerationRateUniform(t *testing.T) {
	g := topology.NewTorus(16, 2)
	if gr := GenerationRate(g, NewUniform(g)); math.Abs(gr-1) > 1e-9 {
		t.Errorf("uniform generation rate = %v, want 1", gr)
	}
}

func TestTraceOrderingAndReplay(t *testing.T) {
	g := topology.NewTorus(16, 2)
	tr := NewTrace(g, "t", []int64{5, 1, 5, 2}, []Arrival{{0, 1}, {2, 3}, {4, 5}, {6, 7}})
	if tr.Len() != 4 || tr.LastCycle() != 5 {
		t.Fatalf("trace len %d last %d", tr.Len(), tr.LastCycle())
	}
	var buf []Arrival
	buf = tr.Arrivals(0, buf[:0])
	if len(buf) != 0 {
		t.Fatal("no arrivals expected at cycle 0")
	}
	buf = tr.Arrivals(2, buf[:0])
	if len(buf) != 2 || buf[0] != (Arrival{2, 3}) || buf[1] != (Arrival{6, 7}) {
		t.Fatalf("cycle <=2 arrivals = %v", buf)
	}
	buf = tr.Arrivals(5, buf[:0])
	if len(buf) != 2 {
		t.Fatalf("cycle 5 arrivals = %v", buf)
	}
	// Reseed rewinds.
	tr.Reseed(0)
	buf = tr.Arrivals(10, buf[:0])
	if len(buf) != 4 {
		t.Fatalf("after rewind, all 4 events: got %v", buf)
	}
}

func TestTraceValidation(t *testing.T) {
	g := topology.NewTorus(4, 2)
	for _, tc := range []struct {
		cycles []int64
		arrs   []Arrival
	}{
		{[]int64{0}, []Arrival{{0, 99}}}, // out of range
		{[]int64{0}, []Arrival{{3, 3}}},  // self loop
		{[]int64{0, 1}, []Arrival{{0, 1}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid trace %v did not panic", tc.arrs)
				}
			}()
			NewTrace(g, "bad", tc.cycles, tc.arrs)
		}()
	}
}

func TestReadTrace(t *testing.T) {
	g := topology.NewTorus(16, 2)
	text := "# comment\n\n0 1 2\n3 4 5\n7 250 10\n"
	tr, err := ReadTrace(g, "file", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.LastCycle() != 7 {
		t.Fatalf("parsed %d events, last %d", tr.Len(), tr.LastCycle())
	}
	if md := tr.MeanDistance(); md <= 0 {
		t.Errorf("trace mean distance = %v", md)
	}
	w := tr.HopClassWeights()
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("trace weights sum to %v", sum)
	}
	if _, err := ReadTrace(g, "bad", strings.NewReader("0 zz 2\n")); err == nil {
		t.Error("malformed trace line parsed")
	}
}

func TestEmptyTrace(t *testing.T) {
	g := topology.NewTorus(16, 2)
	tr := NewTrace(g, "empty", nil, nil)
	if tr.LastCycle() != -1 || tr.MeanDistance() != 0 {
		t.Error("empty trace statistics wrong")
	}
}
