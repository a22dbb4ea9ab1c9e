package message

import (
	"reflect"
	"testing"

	"wormsim/internal/topology"
)

// TestPoolGetMatchesNew: a recycled message must be field-for-field equal to
// a freshly constructed one, including after its previous life mutated every
// routing field.
func TestPoolGetMatchesNew(t *testing.T) {
	g := topology.NewTorus(8, 2)
	p := NewPool()
	m := p.Get(g, 1, 3, 42, 16, 100, nil)
	// Dirty every mutable field as a worm's life would.
	m.Advance(g, 0, topology.Minus, 3, g.Parity(3))
	m.NegHops = 5
	m.BonusStart = 2
	m.TagForced = 0x3
	m.TagFree = 0x1
	m.Class = 7
	m.DeliverTime = 900
	m.HeadStalls = 3
	m.WaitMask = 0x5a
	m.BlockedSince = 850
	p.Put(m)

	got := p.Get(g, 2, 10, 60, 16, 200, nil)
	want := New(g, 2, 10, 60, 16, 200, nil)
	if got != m {
		t.Fatalf("pool did not recycle: got %p, put %p", got, m)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recycled message %+v\n differs from fresh %+v", got, want)
	}
	if gets, reuses := p.Stats(); gets != 2 || reuses != 1 {
		t.Errorf("stats gets=%d reuses=%d, want 2, 1", gets, reuses)
	}
}

// TestPoolTieBreakDraws: reset must consume exactly the draws New does, so a
// shared RNG stream stays in sync across recycling.
func TestPoolTieBreakDraws(t *testing.T) {
	g := topology.NewTorus(8, 2) // even k: half-ring ties exist
	src, dst := g.ID([]int{0, 0}), g.ID([]int{4, 4})
	countNew, countPool := 0, 0
	fresh := New(g, 1, src, dst, 16, 0, func(int) bool { countNew++; return countNew%2 == 0 })
	p := NewPool()
	p.Put(p.Get(g, 0, 1, 2, 16, 0, nil))
	recycled := p.Get(g, 1, src, dst, 16, 0, func(int) bool { countPool++; return countPool%2 == 0 })
	if countNew != countPool {
		t.Errorf("tieBreak draws: New made %d, pooled reset made %d", countNew, countPool)
	}
	if !reflect.DeepEqual(fresh, recycled) {
		t.Errorf("tied-route messages differ: %+v vs %+v", fresh, recycled)
	}
}

// TestPoolDimensionalityMismatch: a pool shared across grids of different n
// must not hand out wrongly sized Remaining/Crossed slices.
func TestPoolDimensionalityMismatch(t *testing.T) {
	g2 := topology.NewTorus(4, 2)
	g3 := topology.NewTorus(4, 3)
	p := NewPool()
	p.Put(p.Get(g2, 1, 0, 3, 8, 0, nil))
	m := p.Get(g3, 2, 0, 3, 8, 0, nil)
	if len(m.Remaining) != 3 || len(m.Crossed) != 3 {
		t.Fatalf("message for 3-cube has %d-dim state", len(m.Remaining))
	}
	if p.Len() != 0 {
		t.Errorf("mismatched message left in pool (len %d)", p.Len())
	}
}

// TestPoolPutNil: recycling nil is a no-op, not a panic or a poisoned slot.
func TestPoolPutNil(t *testing.T) {
	p := NewPool()
	p.Put(nil)
	if p.Len() != 0 {
		t.Errorf("nil Put grew the pool to %d", p.Len())
	}
}
