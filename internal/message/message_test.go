package message

import (
	"testing"
	"testing/quick"
	"unsafe"

	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

func node(g *topology.Grid, x, y int) int { return g.ID([]int{x, y}) }

// TestMessageSize pins the layout the engine's hot path and allocation
// budget assume: WaitMask fills the padding after HeadStalls, so a pooled
// message stays 176 bytes on 64-bit platforms.
func TestMessageSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Message{}); got != 176 {
		t.Fatalf("Message is %d bytes, want 176", got)
	}
}

func TestNewBasics(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := New(g, 7, node(g, 4, 4), node(g, 2, 2), 16, 100, nil)
	if m.ID != 7 || m.Len != 16 || m.GenTime != 100 {
		t.Fatalf("basic fields wrong: %+v", m)
	}
	if m.HopsTotal != 4 {
		t.Fatalf("(4,4)->(2,2) needs %d hops, want 4", m.HopsTotal)
	}
	if m.Remaining[0] != -2 || m.Remaining[1] != -2 {
		t.Fatalf("remaining = %v, want [-2 -2]", m.Remaining)
	}
	if m.Arrived() {
		t.Fatal("fresh message claims arrived")
	}
	if m.Latency() != -1 {
		t.Fatal("undelivered message has a latency")
	}
	if m.DeliverTime != -1 {
		t.Fatal("DeliverTime should start at -1")
	}
}

func TestHopsTotalEqualsDistance(t *testing.T) {
	g := topology.NewTorus(16, 2)
	f := func(a, b uint16) bool {
		s := int(a) % g.Nodes()
		d := int(b) % g.Nodes()
		if s == d {
			return true
		}
		m := New(g, 0, s, d, 16, 0, nil)
		return m.HopsTotal == g.Distance(s, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTieBreak(t *testing.T) {
	g := topology.NewTorus(16, 2)
	src := node(g, 0, 0)
	dst := node(g, 8, 0) // exactly half the ring in dim 0
	plus := New(g, 0, src, dst, 16, 0, func(int) bool { return true })
	if plus.Remaining[0] != 8 {
		t.Errorf("tie broken to Plus should give +8, got %d", plus.Remaining[0])
	}
	minus := New(g, 0, src, dst, 16, 0, func(int) bool { return false })
	if minus.Remaining[0] != -8 {
		t.Errorf("tie broken to Minus should give -8, got %d", minus.Remaining[0])
	}
	if plus.HopsTotal != 8 || minus.HopsTotal != 8 {
		t.Error("both tie resolutions are 8 hops")
	}
	// Without a tie there is no callback influence.
	far := New(g, 0, src, node(g, 3, 0), 16, 0, func(int) bool { return false })
	if far.Remaining[0] != 3 {
		t.Errorf("0->3 should be +3 regardless of tie break, got %d", far.Remaining[0])
	}
}

func TestDirInDim(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := New(g, 0, node(g, 0, 5), node(g, 3, 2), 16, 0, nil)
	dir, ok := m.DirInDim(0)
	if !ok || dir != topology.Plus {
		t.Errorf("dim0 should be Plus: %v %v", dir, ok)
	}
	dir, ok = m.DirInDim(1)
	if !ok || dir != topology.Minus {
		t.Errorf("dim1 should be Minus: %v %v", dir, ok)
	}
	done := New(g, 0, node(g, 0, 0), node(g, 1, 0), 16, 0, nil)
	if _, ok := done.DirInDim(1); ok {
		t.Error("dim1 is already corrected")
	}
}

func TestAdvanceWalk(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// Walk (4,4) -> (3,4) -> (3,3) -> (2,3) -> (2,2), the paper's Figure 2
	// path, checking counters along the way.
	m := New(g, 0, node(g, 4, 4), node(g, 2, 2), 16, 0, nil)
	path := []struct {
		fromX, fromY int
		dim          int
	}{
		{4, 4, 0}, {3, 4, 1}, {3, 3, 0}, {2, 3, 1},
	}
	wantNeg := []int{0, 0, 1, 1} // negative hops BEFORE each hop
	for i, hop := range path {
		from := node(g, hop.fromX, hop.fromY)
		if m.NegHops != wantNeg[i] {
			t.Fatalf("hop %d: NegHops = %d, want %d", i, m.NegHops, wantNeg[i])
		}
		m.Advance(g, hop.dim, topology.Minus, g.Coord(from, hop.dim), g.Parity(from))
	}
	if !m.Arrived() {
		t.Fatal("message should have arrived")
	}
	if m.HopsTaken != 4 || m.HopsLeft() != 0 {
		t.Fatalf("hops taken %d", m.HopsTaken)
	}
	if m.NegHops != 2 {
		t.Fatalf("final NegHops = %d, want 2", m.NegHops)
	}
}

func TestAdvancePanicsOnNonMinimal(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := New(g, 0, node(g, 0, 0), node(g, 3, 0), 16, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("non-minimal hop did not panic")
		}
	}()
	m.Advance(g, 0, topology.Minus, 0, 0) // needs Plus, not Minus
}

func TestAdvancePanicsOnCorrectedDim(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := New(g, 0, node(g, 0, 0), node(g, 3, 0), 16, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("hop in corrected dimension did not panic")
		}
	}()
	m.Advance(g, 1, topology.Plus, 0, 0)
}

func TestAdvanceDateline(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := New(g, 0, node(g, 14, 0), node(g, 2, 0), 16, 0, nil) // wraps +x
	if m.Remaining[0] != 4 {
		t.Fatalf("14->2 should be +4, got %d", m.Remaining[0])
	}
	coords := []int{14, 15, 0, 1}
	// The hop out of col 15 is the crossing; Crossed flips as it is taken
	// (the crossing hop itself is still classed "before the dateline" by
	// e-cube, which reads Crossed before advancing).
	wantCrossed := []bool{false, true, true, true}
	for i, c := range coords {
		from := node(g, c, 0)
		m.Advance(g, 0, topology.Plus, g.Coord(from, 0), g.Parity(from))
		if m.Crossed[0] != wantCrossed[i] {
			t.Fatalf("after hop from col %d: Crossed = %v, want %v", c, m.Crossed[0], wantCrossed[i])
		}
	}
	if !m.Arrived() {
		t.Fatal("should have arrived at (2,0)")
	}
}

func TestNegHopsNeeded(t *testing.T) {
	g := topology.NewTorus(16, 2)
	// 4 hops starting from an even node: hops alternate even->odd->even...,
	// negative hops (out of odd nodes) = 2 of the 4.
	m := New(g, 0, node(g, 4, 4), node(g, 2, 2), 16, 0, nil)
	if got := m.NegHopsNeeded(g.Parity(m.Src)); got != 2 {
		t.Errorf("even start, 4 hops: %d negative, want 2", got)
	}
	// Odd start, 3 hops: odd->even->odd->even: negative on hops 1 and 3.
	m2 := New(g, 0, node(g, 1, 0), node(g, 4, 0), 16, 0, nil)
	if got := m2.NegHopsNeeded(g.Parity(m2.Src)); got != 2 {
		t.Errorf("odd start, 3 hops: %d negative, want 2", got)
	}
	// Even start, 3 hops: negative on hop 2 only.
	m3 := New(g, 0, node(g, 0, 0), node(g, 3, 0), 16, 0, nil)
	if got := m3.NegHopsNeeded(g.Parity(m3.Src)); got != 1 {
		t.Errorf("even start, 3 hops: %d negative, want 1", got)
	}
}

func TestNegHopsNeededMatchesWalk(t *testing.T) {
	// Property: walking any minimal path accumulates exactly NegHopsNeeded
	// negative hops (independent of the adaptive choices taken).
	g := topology.NewTorus(16, 2)
	r := rng.New(5)
	for trial := 0; trial < 500; trial++ {
		s := r.Intn(g.Nodes())
		d := r.Intn(g.Nodes())
		if s == d {
			continue
		}
		m := New(g, 0, s, d, 16, 0, func(int) bool { return r.Bernoulli(0.5) })
		want := m.NegHopsNeeded(g.Parity(s))
		cur := s
		for !m.Arrived() {
			// Pick a random uncorrected dimension.
			var dims []int
			for dim := 0; dim < g.N(); dim++ {
				if _, ok := m.DirInDim(dim); ok {
					dims = append(dims, dim)
				}
			}
			dim := dims[r.Intn(len(dims))]
			dir, _ := m.DirInDim(dim)
			m.Advance(g, dim, dir, g.Coord(cur, dim), g.Parity(cur))
			cur = g.Neighbor(cur, dim, dir)
		}
		if cur != d {
			t.Fatalf("walk ended at %d, want %d", cur, d)
		}
		if m.NegHops != want {
			t.Fatalf("%d->%d: took %d negative hops, NegHopsNeeded said %d", s, d, m.NegHops, want)
		}
	}
}

func TestLatency(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := New(g, 0, 0, 1, 16, 1000, nil)
	m.DeliverTime = 1023
	if m.Latency() != 23 {
		t.Errorf("latency = %d, want 23", m.Latency())
	}
}

func TestString(t *testing.T) {
	g := topology.NewTorus(16, 2)
	m := New(g, 9, 0, 5, 16, 0, nil)
	if got := m.String(); got != "msg 9 0->5 len 16 hops 0/5" {
		t.Errorf("String = %q", got)
	}
}
