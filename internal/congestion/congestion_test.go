package congestion

import "testing"

func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	for i := 0; i < 100; i++ {
		if !l.Admit(0, 0) {
			t.Fatal("nil limiter refused a message")
		}
	}
	l.Release(0, 0) // must not panic
	if l.Limit() != 0 || l.Resident(0, 0) != 0 {
		t.Error("nil limiter statistics should be zero")
	}
	if NewLimiter(4, 0) != nil {
		t.Error("limit 0 should return a nil limiter")
	}
}

func TestAdmitUpToLimit(t *testing.T) {
	l := NewLimiter(4, 2)
	if l.Limit() != 2 {
		t.Fatalf("Limit = %d", l.Limit())
	}
	if !l.Admit(1, 5) || !l.Admit(1, 5) {
		t.Fatal("first two admits should pass")
	}
	if l.Admit(1, 5) {
		t.Fatal("third admit should be refused")
	}
	if l.Resident(1, 5) != 2 {
		t.Fatalf("resident = %d", l.Resident(1, 5))
	}
	// Other classes and nodes are unaffected.
	if !l.Admit(1, 6) || !l.Admit(2, 5) {
		t.Fatal("independent class/node refused")
	}
}

func TestReleaseReopens(t *testing.T) {
	l := NewLimiter(2, 1)
	if !l.Admit(0, 3) {
		t.Fatal("admit failed")
	}
	if l.Admit(0, 3) {
		t.Fatal("limit 1 should refuse the second")
	}
	l.Release(0, 3)
	if !l.Admit(0, 3) {
		t.Fatal("release should reopen the slot")
	}
}

func TestReleaseWithoutAdmitPanics(t *testing.T) {
	l := NewLimiter(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced release did not panic")
		}
	}()
	l.Release(0, 0)
}

// TestRecycleStartsClean: a recycled limiter behaves as a new one — no
// residency survives, whether it shrinks, keeps a widened class table or has
// to be rebuilt.
func TestRecycleStartsClean(t *testing.T) {
	l := NewLimiter(4, 1)
	if !l.Admit(3, 20) { // widens the class table
		t.Fatal("first admit refused")
	}
	if l.Admit(3, 20) {
		t.Fatal("admit past the limit accepted")
	}
	for _, nodes := range []int{2, 4, 64} {
		l = l.Recycle(nodes, 2)
		if l.Limit() != 2 {
			t.Fatalf("%d nodes: recycled limiter not clean: %+v", nodes, l)
		}
		for node := 0; node < nodes; node++ {
			if l.Resident(node, 20) != 0 {
				t.Fatalf("%d nodes: state survived at node %d", nodes, node)
			}
		}
		if !l.Admit(nodes-1, 20) || !l.Admit(nodes-1, 20) || l.Admit(nodes-1, 20) {
			t.Fatalf("%d nodes: recycled limiter does not admit exactly its limit", nodes)
		}
	}
	if l.Recycle(4, 0) != nil {
		t.Error("recycling to limit 0 must disable congestion control")
	}
	if (*Limiter)(nil).Recycle(4, 1).Limit() != 1 {
		t.Error("recycling a nil limiter must build one")
	}
}
