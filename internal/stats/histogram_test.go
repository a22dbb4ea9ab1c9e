package stats

import (
	"math"
	"sort"
	"strings"
	"testing"

	"wormsim/internal/rng"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should be all zeros")
	}
	for _, v := range []float64{10, 20, 30, 40} {
		h.Add(v)
	}
	if h.Count() != 4 {
		t.Errorf("count %d", h.Count())
	}
	if h.Mean() != 25 {
		t.Errorf("mean %v, want exact 25", h.Mean())
	}
	if h.Max() != 40 {
		t.Errorf("max %v", h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Add(-5)
	if h.Count() != 1 || h.Max() != 0 {
		t.Error("negative observation should clamp to 0")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Against exact order statistics of a large random sample: the
	// geometric buckets guarantee ~25% relative resolution.
	r := rng.New(7)
	var h Histogram
	values := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := float64(16 + r.Intn(985)) // latencies 16..1000
		h.Add(v)
		values = append(values, v)
	}
	sort.Float64s(values)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := values[int(q*float64(len(values)-1))]
		got := h.Quantile(q)
		if math.Abs(got-exact) > 0.15*exact+histBase {
			t.Errorf("q=%.2f: histogram %v, exact %v", q, got, exact)
		}
	}
	// Quantiles are monotone in q.
	qs := h.Quantiles(0.99, 0.5, 0.1)
	if !(qs[2] <= qs[1] && qs[1] <= qs[0]) {
		t.Errorf("quantiles not monotone: %v", qs)
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	var h Histogram
	h.Add(100)
	if h.Quantile(-1) < 0 {
		t.Error("q<0 should clamp")
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("q>1 should clamp: %v vs %v", got, h.Quantile(1))
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if !strings.Contains(h.String(), "p95=") {
		t.Errorf("String = %q", h.String())
	}
}

func TestBucketBoundsConsistent(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it.
	r := rng.New(11)
	for i := 0; i < 5000; i++ {
		v := r.Float64() * 10000
		idx := bucketIndex(v)
		lo, hi := bucketLow(idx), bucketLow(idx+1)
		if v < lo || v >= hi {
			// Floating rounding at the exact boundary may place the value
			// one bucket off; accept the neighbour.
			if !(v >= bucketLow(idx+1) && v < bucketLow(idx+2)) &&
				!(idx > 0 && v >= bucketLow(idx-1) && v < lo) {
				t.Fatalf("value %v in bucket %d [%v,%v)", v, idx, lo, hi)
			}
		}
	}
}
