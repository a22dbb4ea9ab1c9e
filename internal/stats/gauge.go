package stats

import "fmt"

// Gauge summarizes an instantaneous level sampled over time (virtual-channel
// occupancy, injection-queue depth): a Welford accumulator over the samples
// plus the exact extremes, so a report can state both the average level and
// the worst excursion.
type Gauge struct {
	w        Welford
	min, max float64
}

// Observe records one sample of the level.
func (g *Gauge) Observe(v float64) {
	if g.w.Count() == 0 || v < g.min {
		g.min = v
	}
	if g.w.Count() == 0 || v > g.max {
		g.max = v
	}
	g.w.Add(v)
}

// Count returns the number of samples.
func (g *Gauge) Count() int64 { return g.w.Count() }

// Mean returns the time-average level (0 with no samples).
func (g *Gauge) Mean() float64 { return g.w.Mean() }

// StdDev returns the sample standard deviation of the level.
func (g *Gauge) StdDev() float64 { return g.w.StdDev() }

// Min returns the smallest observed level (0 with no samples).
func (g *Gauge) Min() float64 { return g.min }

// Max returns the largest observed level (0 with no samples).
func (g *Gauge) Max() float64 { return g.max }

// String renders a compact summary.
func (g *Gauge) String() string {
	return fmt.Sprintf("mean=%.2f min=%.0f max=%.0f n=%d", g.Mean(), g.min, g.max, g.w.Count())
}
