package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a streaming histogram for non-negative integer-valued
// observations (latencies in cycles) with geometrically growing bucket
// widths, so both the unloaded 20-cycle regime and the deep-saturation
// thousand-cycle regime resolve well without knowing the range up front.
type Histogram struct {
	// buckets[i] counts observations with value in [bound(i), bound(i+1)).
	buckets []int64
	count   int64
	sum     float64
	max     float64
}

// histBase is the resolution knob: bucket i covers
// [histBase*growth^i, histBase*growth^(i+1)).
const (
	histBase   = 8.0
	histGrowth = 1.25
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v < histBase {
		return 0
	}
	return 1 + int(math.Log(v/histBase)/math.Log(histGrowth))
}

// bucketLow returns the inclusive lower bound of bucket i.
func bucketLow(i int) float64 {
	if i == 0 {
		return 0
	}
	return histBase * math.Pow(histGrowth, float64(i-1))
}

// Add records one observation; negative values are clamped to zero.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the exact mean of the observations (tracked outside the
// buckets).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the exact maximum observation.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket. With no observations it
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	var cum int64
	for i, c := range h.buckets {
		if float64(cum+c) >= target && c > 0 {
			lo := bucketLow(i)
			hi := bucketLow(i + 1)
			if hi > h.max {
				hi = h.max
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.max
}

// String renders a compact summary with the conventional tail quantiles.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.0f",
		h.count, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.max)
}

// CumBucket is one cumulative histogram bucket in Prometheus exposition
// form: Count observations had a value <= UpperBound.
type CumBucket struct {
	UpperBound float64
	Count      int64
}

// Cumulative returns the histogram's buckets in cumulative Prometheus form,
// one entry per allocated bucket (the last entry's Count equals Count()).
// Empty histograms return nil.
func (h *Histogram) Cumulative() []CumBucket {
	if len(h.buckets) == 0 {
		return nil
	}
	out := make([]CumBucket, 0, len(h.buckets))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		out = append(out, CumBucket{UpperBound: bucketLow(i + 1), Count: cum})
	}
	return out
}

// Quantiles computes several quantiles at once, more cheaply than repeated
// Quantile calls on large histograms; qs need not be sorted.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	order := make([]int, len(qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return qs[order[a]] < qs[order[b]] })
	for _, idx := range order {
		out[idx] = h.Quantile(qs[idx])
	}
	return out
}
