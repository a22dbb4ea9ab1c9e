package stats

import (
	"math"
	"testing"
)

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Mean() != 0 || g.Min() != 0 || g.Max() != 0 || g.Count() != 0 {
		t.Errorf("zero gauge not zero: %s", g.String())
	}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		g.Observe(v)
	}
	if g.Count() != 5 {
		t.Errorf("Count = %d, want 5", g.Count())
	}
	if got, want := g.Mean(), 14.0/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if g.Min() != 1 || g.Max() != 5 {
		t.Errorf("Min/Max = %g/%g, want 1/5", g.Min(), g.Max())
	}
	var neg Gauge
	neg.Observe(-2)
	if neg.Min() != -2 || neg.Max() != -2 {
		t.Errorf("first observation -2: Min/Max = %g/%g, want -2/-2", neg.Min(), neg.Max())
	}
}
