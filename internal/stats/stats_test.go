package stats

import (
	"math"
	"testing"
	"testing/quick"

	"wormsim/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordAgainstDirect(t *testing.T) {
	data := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var w Welford
	for _, x := range data {
		w.Add(x)
	}
	mean := 0.0
	for _, x := range data {
		mean += x
	}
	mean /= float64(len(data))
	varr := 0.0
	for _, x := range data {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(len(data) - 1)
	if !almost(w.Mean(), mean, 1e-12) {
		t.Errorf("mean %v, want %v", w.Mean(), mean)
	}
	if !almost(w.Variance(), varr, 1e-12) {
		t.Errorf("variance %v, want %v", w.Variance(), varr)
	}
	if !almost(w.StdErr(), math.Sqrt(varr/float64(len(data))), 1e-12) {
		t.Errorf("stderr %v", w.StdErr())
	}
	if w.Count() != int64(len(data)) {
		t.Errorf("count %d", w.Count())
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("empty accumulator should be all zero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Error("single observation: mean 5, variance 0")
	}
	w.Reset()
	if w.Count() != 0 {
		t.Error("reset failed")
	}
}

func TestWelfordMerge(t *testing.T) {
	r := rng.New(5)
	f := func(na, nb uint8) bool {
		var all, a, b Welford
		for i := 0; i < int(na%40); i++ {
			x := r.Float64() * 10
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nb%40)+1; i++ {
			x := r.Float64() * 10
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		return a.Count() == all.Count() &&
			almost(a.Mean(), all.Mean(), 1e-9) &&
			almost(a.Variance(), all.Variance(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStratifiedExactPopulation(t *testing.T) {
	// Two strata with known weights and constant values: the estimate is
	// the weighted mean with zero variance.
	s := NewStratified([]float64{0, 0.25, 0.75})
	for i := 0; i < 10; i++ {
		s.Add(1, 10)
		s.Add(2, 20)
	}
	if !almost(s.Mean(), 0.25*10+0.75*20, 1e-12) {
		t.Errorf("stratified mean = %v, want 17.5", s.Mean())
	}
	if s.Variance() != 0 {
		t.Errorf("variance = %v, want 0", s.Variance())
	}
	if s.ErrorBound() != 0 {
		t.Errorf("bound = %v", s.ErrorBound())
	}
	if s.Count() != 20 || s.StratumCount(1) != 10 || s.StratumMean(2) != 20 {
		t.Error("stratum accounting wrong")
	}
}

func TestStratifiedRenormalizesUnobserved(t *testing.T) {
	s := NewStratified([]float64{0.5, 0.5})
	s.Add(0, 10)
	// Stratum 1 unobserved: the estimate falls back to stratum 0 alone.
	if !almost(s.Mean(), 10, 1e-12) {
		t.Errorf("mean with one observed stratum = %v, want 10", s.Mean())
	}
}

func TestStratifiedVarianceFormula(t *testing.T) {
	s := NewStratified([]float64{0.4, 0.6})
	vals0 := []float64{1, 3}
	vals1 := []float64{10, 14}
	for _, v := range vals0 {
		s.Add(0, v)
	}
	for _, v := range vals1 {
		s.Add(1, v)
	}
	// s0^2 = 2, s1^2 = 8, var = 0.16*2/2 + 0.36*8/2 = 0.16 + 1.44 = 1.6.
	if !almost(s.Variance(), 1.6, 1e-12) {
		t.Errorf("variance = %v, want 1.6", s.Variance())
	}
	if !almost(s.ErrorBound(), 2*math.Sqrt(1.6), 1e-12) {
		t.Errorf("bound = %v", s.ErrorBound())
	}
}

func TestStratifiedConverged(t *testing.T) {
	s := NewStratified([]float64{1})
	if s.Converged(0.05) {
		t.Error("empty estimator claims convergence")
	}
	for i := 0; i < 100; i++ {
		s.Add(0, 100) // constant: zero variance
	}
	if !s.Converged(0.05) {
		t.Error("constant data should converge")
	}
	s.Reset()
	if s.Count() != 0 {
		t.Error("reset failed")
	}
}

func TestStratifiedAddPanics(t *testing.T) {
	s := NewStratified([]float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range stratum did not panic")
		}
	}()
	s.Add(5, 1)
}

func TestStratifiedUnbiasedOnSyntheticPopulation(t *testing.T) {
	// Strata with different means sampled at different rates: the
	// stratified estimator must recover the weighted population mean, which
	// naive averaging would miss.
	r := rng.New(9)
	weights := []float64{0.7, 0.2, 0.1}
	means := []float64{10, 50, 200}
	truth := 0.0
	for i := range weights {
		truth += weights[i] * means[i]
	}
	s := NewStratified(weights)
	counts := []int{100, 1000, 5000} // deliberately inverted sampling rates
	for i := range weights {
		for j := 0; j < counts[i]; j++ {
			s.Add(i, means[i]+(r.Float64()-0.5)*4)
		}
	}
	if math.Abs(s.Mean()-truth) > 1 {
		t.Errorf("stratified mean %v, want about %v", s.Mean(), truth)
	}
	// Verify the 2-sigma bound is honest for this easy case.
	if s.ErrorBound() > truth*0.05 && !s.Converged(0.05) {
		t.Log("bound loose but consistent")
	}
}

func TestConvergenceStoppingRule(t *testing.T) {
	c := &Convergence{MinSamples: 3, MaxSamples: 12, Tolerance: 0.05}
	tight := NewStratified([]float64{1})
	for i := 0; i < 50; i++ {
		tight.Add(0, 100)
	}
	// Fewer than MinSamples: never done.
	c.Record(100)
	if c.Done(tight) {
		t.Error("done after 1 sample")
	}
	c.Record(100)
	if c.Done(tight) {
		t.Error("done after 2 samples")
	}
	c.Record(100)
	if !c.Done(tight) {
		t.Error("3 identical samples with a tight estimator should stop")
	}
	if c.Samples() != 3 {
		t.Errorf("samples = %d", c.Samples())
	}
}

func TestConvergenceRejectsScatter(t *testing.T) {
	c := &Convergence{MinSamples: 3, MaxSamples: 12, Tolerance: 0.05}
	tight := NewStratified([]float64{1})
	for i := 0; i < 50; i++ {
		tight.Add(0, 100)
	}
	// Widely scattered sample means keep it running even though the latest
	// stratified bound is tight.
	c.Record(50)
	c.Record(150)
	c.Record(100)
	if c.Done(tight) {
		t.Error("scattered samples should not converge")
	}
}

func TestConvergenceMaxSamplesForcesStop(t *testing.T) {
	c := &Convergence{MinSamples: 3, MaxSamples: 5, Tolerance: 0.05}
	loose := NewStratified([]float64{1})
	loose.Add(0, 1)
	loose.Add(0, 100)
	for i := 0; i < 5; i++ {
		c.Record(float64(i * 50))
	}
	if !c.Done(loose) {
		t.Error("MaxSamples must force termination")
	}
}

func TestConvergenceWindow(t *testing.T) {
	c := &Convergence{MinSamples: 3, MaxSamples: 12, Tolerance: 0.05}
	// Early noisy samples must not prevent convergence once the latest
	// three agree (the paper uses the latest three or more samples).
	c.Record(10)
	c.Record(500)
	c.Record(100)
	c.Record(100)
	c.Record(100)
	bound, mean := c.AcrossSampleBound()
	if !almost(mean, 100, 1e-9) {
		t.Errorf("windowed mean = %v, want 100", mean)
	}
	if bound != 0 {
		t.Errorf("windowed bound = %v, want 0", bound)
	}
	c.Reset()
	if c.Samples() != 0 {
		t.Error("reset failed")
	}
	if b, _ := c.AcrossSampleBound(); !math.IsInf(b, 1) {
		t.Error("bound with <2 samples should be +Inf")
	}
}
