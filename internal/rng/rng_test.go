package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewStream(42, 7)
	b := NewStream(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("streams with equal seed/id diverged at draw %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(42, 1)
	b := NewStream(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 3 {
		t.Fatalf("streams 1 and 2 collide on %d of 1000 draws", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := NewStream(1, 0)
	b := NewStream(2, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 3 {
		t.Fatalf("seeds 1 and 2 collide on %d of 1000 draws", same)
	}
}

func TestUint32Uniformity(t *testing.T) {
	s := New(99)
	const draws = 200000
	var buckets [16]int
	for i := 0; i < draws; i++ {
		buckets[s.Uint32()>>28]++
	}
	want := float64(draws) / 16
	for b, got := range buckets {
		if math.Abs(float64(got)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", b, got, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want about 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := s.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(13)
	const n, draws = 7, 140000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for v, got := range counts {
		if math.Abs(float64(got)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d: got %d, want about %.0f", v, got, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulli(t *testing.T) {
	s := New(17)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9} {
		hits := 0
		const draws = 100000
		for i := 0; i < draws; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / draws
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency %.4f", p, got)
		}
	}
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	if s.Bernoulli(-0.5) {
		t.Error("Bernoulli(-0.5) returned true")
	}
}

func TestShuffle(t *testing.T) {
	s := New(41)
	data := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	seen := make([]bool, len(data))
	for _, v := range data {
		if seen[v] {
			t.Fatalf("shuffle duplicated %d", v)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(43)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 3 {
		t.Fatalf("split streams collide on %d of 1000 draws", same)
	}
}

func TestUint64CombinesTwoDraws(t *testing.T) {
	a := New(47)
	b := New(47)
	hi := uint64(b.Uint32())
	lo := uint64(b.Uint32())
	if got, want := a.Uint64(), hi<<32|lo; got != want {
		t.Errorf("Uint64 = %#x, want %#x", got, want)
	}
}

func BenchmarkUint32(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint32()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Intn(17)
	}
}

// TestUint64MatchesPairedUint32: the unrolled Uint64 must produce exactly
// the high<<32|low composition of two Uint32 draws, so streams mixing the
// two call styles keep their historical sequences.
func TestUint64MatchesPairedUint32(t *testing.T) {
	a := NewStream(99, 7)
	b := NewStream(99, 7)
	for i := 0; i < 1000; i++ {
		want := uint64(b.Uint32())<<32 | uint64(b.Uint32())
		if got := a.Uint64(); got != want {
			t.Fatalf("draw %d: Uint64 %#x, paired Uint32 %#x", i, got, want)
		}
	}
}

// TestBernoulliThresholdMatchesFloat64: the integer cutoff must agree with
// the float comparison it replaces on every draw, including probabilities
// that are not exactly representable and the degenerate endpoints.
func TestBernoulliThresholdMatchesFloat64(t *testing.T) {
	probs := []float64{0, 1, -0.5, 1.5, 0.5, 0.25, 0.1, 0.3, 1e-9, 0.9999999,
		1.0 / (1 << 53), 3.0 / (1 << 53), 0.0025, 0.7311}
	for _, p := range probs {
		thr := BernoulliThreshold(p)
		a := NewStream(5, 3)
		for i := 0; i < 5000; i++ {
			k := a.Uint53()
			intAnswer := k < thr
			floatAnswer := float64(k)/(1<<53) < p
			if intAnswer != floatAnswer {
				t.Fatalf("p=%g draw %d (k=%d): integer %v, float %v", p, i, k, intAnswer, floatAnswer)
			}
		}
	}
}

// TestBernoulliDrawCount: probabilities strictly inside (0, 1) consume one
// Uint64; the endpoints consume nothing (the historical shortcut paths).
func TestBernoulliDrawCount(t *testing.T) {
	s := NewStream(1, 1)
	ref := NewStream(1, 1)
	s.Bernoulli(0)
	s.Bernoulli(1)
	if got, want := s.Uint32(), ref.Uint32(); got != want {
		t.Fatalf("endpoint Bernoulli consumed draws: %#x vs %#x", got, want)
	}
	ref.Uint64()
	s.Bernoulli(0.5)
	if got, want := s.Uint32(), ref.Uint32(); got != want {
		t.Fatalf("interior Bernoulli consumed != 1 Uint64: %#x vs %#x", got, want)
	}
}
