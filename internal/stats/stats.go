// Package stats implements the paper's statistics and convergence
// machinery: Welford accumulators, the stratified population-mean estimator
// over hop classes (Scheaffer et al., as cited by the paper), 95% confidence
// intervals taken as +-2 sigma, and the two-criterion convergence check that
// terminates a simulation once both the stratified bound and the
// across-sample bound fall within 5% of their means.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates a running mean and variance in one pass.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Stratified estimates a population mean by stratified sampling: the
// population (messages) is partitioned into strata (hop classes) with known
// weights (the probability a generated message belongs to the class, from
// the traffic pattern), and each stratum's mean and variance are estimated
// from its own observations.
type Stratified struct {
	weights []float64
	strata  []Welford
}

// NewStratified returns an estimator with the given stratum weights. The
// weights need not sum to one; they are renormalized over the strata that
// received observations when estimating.
func NewStratified(weights []float64) *Stratified {
	w := make([]float64, len(weights))
	copy(w, weights)
	return &Stratified{weights: w, strata: make([]Welford, len(weights))}
}

// Add records an observation in stratum i.
func (s *Stratified) Add(i int, x float64) {
	if i < 0 || i >= len(s.strata) {
		panic(fmt.Sprintf("stats: stratum %d out of range [0,%d)", i, len(s.strata)))
	}
	s.strata[i].Add(x)
}

// Count returns the total number of observations.
func (s *Stratified) Count() int64 {
	var n int64
	for i := range s.strata {
		n += s.strata[i].Count()
	}
	return n
}

// Mean returns the stratified estimate of the population mean: sum of
// weight_i * mean_i over observed strata, renormalized by the total observed
// weight (strata with positive weight but no observations yet are excluded,
// which matters only early in a sample).
func (s *Stratified) Mean() float64 {
	sum, wsum := 0.0, 0.0
	for i := range s.strata {
		if s.strata[i].Count() == 0 || s.weights[i] == 0 {
			continue
		}
		sum += s.weights[i] * s.strata[i].Mean()
		wsum += s.weights[i]
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// Variance returns the variance of the stratified mean estimator:
// sum of weight_i^2 * s_i^2 / n_i over observed strata (with the same
// renormalization as Mean).
func (s *Stratified) Variance() float64 {
	sum, wsum := 0.0, 0.0
	for i := range s.strata {
		n := s.strata[i].Count()
		if n == 0 || s.weights[i] == 0 {
			continue
		}
		wsum += s.weights[i]
		if n < 2 {
			continue
		}
		sum += s.weights[i] * s.weights[i] * s.strata[i].Variance() / float64(n)
	}
	if wsum == 0 {
		return 0
	}
	return sum / (wsum * wsum)
}

// ErrorBound returns the paper's bound on the error of estimation: two
// standard deviations of the estimator (a 95% confidence half-width).
func (s *Stratified) ErrorBound() float64 { return 2 * math.Sqrt(s.Variance()) }

// Converged reports whether the relative error bound is within tol of the
// mean (and there is at least one observation).
func (s *Stratified) Converged(tol float64) bool {
	m := s.Mean()
	if s.Count() == 0 || m == 0 {
		return false
	}
	return s.ErrorBound() <= tol*math.Abs(m)
}

// Convergence runs the paper's two-criterion stopping rule over sampling
// periods and reports the run's latency estimate: terminate once (a) the
// stratified latency bound of the latest sample and (b) the across-sample
// bound over the latest sample means are both within Tolerance of their
// respective means, subject to MinSamples and MaxSamples.
type Convergence struct {
	// MinSamples and MaxSamples bound the number of sampling periods
	// (paper: at least 3, at most 10-15).
	MinSamples int
	MaxSamples int
	// Tolerance is the relative error bound (paper: 5%).
	Tolerance float64

	sampleMeans []float64
	lastBound   float64 // stratified bound of the latest sample
	done        bool    // Add's latest answer
}

// Add records a finished sampling period — its stratified mean and bound —
// and reports whether the stopping rule terminates the run here.
func (c *Convergence) Add(sample *Stratified) bool {
	c.sampleMeans = append(c.sampleMeans, sample.Mean())
	c.lastBound = sample.ErrorBound()
	c.done = c.stop(sample)
	return c.done
}

// Samples returns the number of recorded samples.
func (c *Convergence) Samples() int { return len(c.sampleMeans) }

// Estimate reports the run's latency estimate: the mean of the latest three
// or more sample means (the only sample's mean with one, 0 with none), the
// larger of the two convergence bounds (the latest stratified bound alone
// with fewer than two samples, and 0 with none), and whether the stopping
// rule was met.
func (c *Convergence) Estimate() (mean, bound float64, converged bool) {
	across, mean := c.acrossSampleBound()
	bound = math.Max(c.lastBound, across)
	if math.IsInf(bound, 1) {
		bound = c.lastBound
	}
	// A run that meets the rule on its last allowed sample reports not
	// converged; ROADMAP item 4 fixes this with its re-pin.
	converged = c.done && len(c.sampleMeans) < c.MaxSamples
	return mean, bound, converged
}

// acrossSampleBound returns the across-sample error bound (2 * stderr of the
// sample means) and their mean, over the latest three or more samples. A
// single sample has a mean but no bound (+Inf); none has neither.
func (c *Convergence) acrossSampleBound() (bound, mean float64) {
	n := len(c.sampleMeans)
	if n < 2 {
		if n == 1 {
			mean = c.sampleMeans[0]
		}
		return math.Inf(1), mean
	}
	// Use the latest three or more samples, per the paper.
	window := c.sampleMeans
	if n > 3 {
		window = c.sampleMeans[n-3:]
	}
	var w Welford
	for _, m := range window {
		w.Add(m)
	}
	return 2 * w.StdErr(), w.Mean()
}

// stop reports whether the stopping rule is satisfied, given the latest
// sample's stratified estimator.
func (c *Convergence) stop(latest *Stratified) bool {
	n := len(c.sampleMeans)
	if n >= c.MaxSamples {
		return true
	}
	if n < c.MinSamples {
		return false
	}
	if !latest.Converged(c.Tolerance) {
		return false
	}
	bound, mean := c.acrossSampleBound()
	return mean != 0 && bound <= c.Tolerance*math.Abs(mean)
}
