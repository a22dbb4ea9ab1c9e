package forensics

import (
	"strings"
	"testing"
)

// sample runs one sampled cycle over hand-built wait-for edges.
// Each edge is {head slot, holder head slot (-1 = moving), wanted channel}.
func sample(t *testing.T, a *Analyzer, cycle int64, edges [][3]int32) {
	t.Helper()
	if !a.StartCycle(cycle) {
		t.Fatalf("cycle %d not sampled at every=1", cycle)
	}
	for i, e := range edges {
		holderID := int64(-1)
		if e[1] >= 0 {
			holderID = int64(100 + e[1])
		}
		a.Blocked(e[0], int64(i), 0, e[2], 0, 1, e[1], holderID)
	}
	a.Resolve(cycle)
}

func TestChainBlamesRoot(t *testing.T) {
	a := New(Options{SampleEvery: 1}, 8)
	// w0 (head 10) waits on w1 (head 11) waits on w2 (head 12), whose holder
	// is moving: the whole tree roots at w2's wanted channel 5.
	sample(t, a, 0, [][3]int32{
		{10, 11, 3},
		{11, 12, 4},
		{12, -1, 5},
	})
	s := a.Summary()
	if s.BlameByChannel[5] != 3 {
		t.Errorf("root channel 5 blame %d, want 3 (whole tree)", s.BlameByChannel[5])
	}
	if s.BlameByChannel[3] != 0 || s.BlameByChannel[4] != 0 {
		t.Errorf("interior channels blamed: %v", s.BlameByChannel)
	}
	if s.Trees != 1 || s.MaxTreeSize != 3 || s.MaxTreeDepth != 3 {
		t.Errorf("tree stats: %+v", s)
	}
	if s.AttributedFraction() != 1 {
		t.Errorf("attribution %.2f", s.AttributedFraction())
	}
}

// TestConvergingChainsShareRoot: two waiters on the same blocked holder form
// one tree of size 3, resolved with memoization (the second chain must reuse
// the first chain's root).
func TestConvergingChainsShareRoot(t *testing.T) {
	a := New(Options{SampleEvery: 1}, 8)
	sample(t, a, 0, [][3]int32{
		{10, 12, 2},
		{11, 12, 3},
		{12, -1, 6},
	})
	s := a.Summary()
	if s.BlameByChannel[6] != 3 {
		t.Errorf("blame %v, want all 3 on channel 6", s.BlameByChannel)
	}
	if s.Trees != 1 || s.MaxTreeSize != 3 || s.MaxTreeDepth != 2 {
		t.Errorf("tree stats: trees=%d size=%d depth=%d", s.Trees, s.MaxTreeSize, s.MaxTreeDepth)
	}
}

func TestHolderNotBlockedIsRoot(t *testing.T) {
	a := New(Options{SampleEvery: 1}, 8)
	// w0 waits on a holder whose head slot 42 recorded nothing this cycle
	// (the holder routed fine): w0's wanted channel is the root.
	sample(t, a, 0, [][3]int32{{10, 42, 7}})
	s := a.Summary()
	if s.BlameByChannel[7] != 1 || s.Trees != 1 {
		t.Errorf("summary %+v", s)
	}
}

func TestWaitForCycleDetected(t *testing.T) {
	a := New(Options{SampleEvery: 1}, 8)
	// w0 -> w1 -> w2 -> w0 plus a dangler w3 waiting into the cycle.
	sample(t, a, 0, [][3]int32{
		{10, 11, 3},
		{11, 12, 4},
		{12, 10, 1},
		{13, 10, 2},
	})
	s := a.Summary()
	if s.WaitCycles != 1 {
		t.Fatalf("wait cycles %d, want 1", s.WaitCycles)
	}
	if len(s.LastWaitCycle) != 3 {
		t.Fatalf("cycle witness %+v, want 3 edges", s.LastWaitCycle)
	}
	// Canonical root label: the minimum wanted channel in the cycle.
	if s.BlameByChannel[1] != 4 {
		t.Errorf("blame %v, want all 4 worms on cycle root channel 1", s.BlameByChannel)
	}
	if s.Trees != 1 || s.MaxTreeSize != 4 {
		t.Errorf("trees=%d size=%d", s.Trees, s.MaxTreeSize)
	}
	if rep := a.StallReport(); !strings.Contains(rep, "wait-for cycle") {
		t.Errorf("stall report missing cycle witness:\n%s", rep)
	}
}

func TestSamplingSkipsAndWeights(t *testing.T) {
	a := New(Options{SampleEvery: 4}, 8)
	for c := int64(0); c < 8; c++ {
		sampled := a.StartCycle(c)
		if want := c%4 == 0; sampled != want {
			t.Fatalf("cycle %d sampled=%v", c, sampled)
		}
		// Blocked outside a sampled cycle must be ignored, not crash.
		a.Blocked(10, 1, 0, 3, 0, 1, -1, -1)
		if sampled {
			a.Resolve(c)
		}
	}
	s := a.Summary()
	if s.Samples != 2 || s.Cycles != 8 {
		t.Fatalf("samples=%d cycles=%d", s.Samples, s.Cycles)
	}
	// Two sampled observations, each standing for 4 cycles.
	if s.BlockedObserved != 8 || s.BlameByChannel[3] != 8 {
		t.Errorf("observed=%d blame=%v", s.BlockedObserved, s.BlameByChannel)
	}
}

func TestAnatomyComponents(t *testing.T) {
	a := New(Options{}, 4)
	// total 100 = inject 10 + stalls 20 + ideal 25 + behind 45.
	a.Delivered(1, 10, 1000, 1010, 1100, 20, 25)
	s := a.Summary()
	if len(s.Anatomy) != 2 {
		t.Fatalf("anatomy classes %d, want 2 (class 0 empty + class 1)", len(s.Anatomy))
	}
	ca := s.Anatomy[1]
	if ca.Delivered != 1 || ca.MeanHops != 10 || ca.MeanTotal != 100 {
		t.Fatalf("class summary %+v", ca)
	}
	for name, got := range map[string]float64{
		"inject": ca.Inject.Mean, "alloc": ca.Alloc.Mean,
		"behind": ca.Behind.Mean, "drain": ca.Drain.Mean,
	} {
		want := map[string]float64{"inject": 10, "alloc": 20, "behind": 45, "drain": 25}[name]
		if got != want {
			t.Errorf("%s mean %g, want %g", name, got, want)
		}
	}
	if ca.Behind.Share < 0.44 || ca.Behind.Share > 0.46 {
		t.Errorf("behind share %g, want 0.45", ca.Behind.Share)
	}
	if len(ca.Drain.Buckets) == 0 || ca.Drain.Buckets[len(ca.Drain.Buckets)-1].Count != 1 {
		t.Errorf("drain buckets %+v", ca.Drain.Buckets)
	}
}

func TestAnatomyClampsNegativeResidual(t *testing.T) {
	a := New(Options{}, 4)
	// ideal exceeds the measured total (cannot happen in the engine; the
	// clamp keeps the histogram honest anyway).
	a.Delivered(0, 2, 0, 0, 10, 0, 20)
	if got := a.Summary().Anatomy[0].Behind.Mean; got != 0 {
		t.Errorf("behind mean %g, want clamped 0", got)
	}
}

func TestTopRootsOrdering(t *testing.T) {
	a := New(Options{SampleEvery: 1}, 8)
	sample(t, a, 0, [][3]int32{
		{10, -1, 5}, {11, -1, 5}, {12, -1, 2}, {13, -1, 7},
	})
	roots := a.Summary().TopRoots(10)
	if len(roots) != 3 {
		t.Fatalf("roots %+v", roots)
	}
	if roots[0].Ch != 5 || roots[0].Blame != 2 || roots[1].Ch != 2 || roots[2].Ch != 7 {
		t.Errorf("ordering %+v", roots)
	}
	if roots[0].Share != 0.5 {
		t.Errorf("share %g", roots[0].Share)
	}
}

func TestSummaryRenders(t *testing.T) {
	a := New(Options{SampleEvery: 1}, 8)
	sample(t, a, 0, [][3]int32{{10, -1, 5}})
	a.Delivered(0, 4, 0, 2, 40, 3, 19)
	out := a.Summary().RenderString()
	for _, want := range []string{"congestion forensics", "top blame roots", "ch 5", "latency anatomy", "drain (ideal)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestStallReportEmptyBeforeSample: the watchdog must get "" (and fall back
// to the raw dump) before the first sample.
func TestStallReportEmptyBeforeSample(t *testing.T) {
	a := New(Options{}, 4)
	if rep := a.StallReport(); rep != "" {
		t.Errorf("unexpected report %q", rep)
	}
}

func TestZeroAllocSteadyStateResolve(t *testing.T) {
	a := New(Options{SampleEvery: 1}, 16)
	edges := [][3]int32{
		{10, 11, 3}, {11, 12, 4}, {12, 10, 1}, {20, 21, 6}, {21, -1, 7},
	}
	run := func(c int64) {
		a.StartCycle(c)
		for i, e := range edges {
			a.Blocked(e[0], int64(i), 0, e[2], 0, 1, e[1], int64(e[1]))
		}
		a.Resolve(c)
	}
	for c := int64(0); c < 10; c++ {
		run(c) // warm up scratch growth
	}
	avg := testing.AllocsPerRun(100, func() { run(11) })
	if avg != 0 {
		t.Errorf("steady-state sample allocates %.1f times", avg)
	}
}
