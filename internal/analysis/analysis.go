// Package analysis derives the secondary observations the paper's
// discussion rests on from raw simulation output: physical-channel load
// balance (sec. 3.4 blames north-last for "skewing even uniform traffic")
// and virtual-channel class balance (the imbalance bonus cards exist to
// fix).
package analysis

import (
	"fmt"
	"math"
	"sort"

	"wormsim/internal/topology"
)

// LoadBalance summarizes how evenly a set of non-negative loads (per
// physical channel or per virtual-channel class) is spread.
type LoadBalance struct {
	// N is the number of carriers considered (zero-capacity slots are
	// excluded by the caller).
	N int
	// Mean, Min and Max of the loads.
	Mean float64
	Min  float64
	Max  float64
	// CV is the coefficient of variation (stddev / mean); 0 is perfectly
	// even.
	CV float64
	// Gini is the Gini coefficient in [0, 1); 0 is perfectly even, values
	// near 1 mean a few carriers take all the traffic.
	Gini float64
	// MaxOverMean is the hot-carrier factor: how much busier the busiest
	// carrier is than the average (the paper's "11.5 times more traffic"
	// style of statement).
	MaxOverMean float64
}

// Balance computes load-balance statistics over loads. It returns a zero
// value for an empty or all-zero input.
func Balance(loads []int64) LoadBalance {
	if len(loads) == 0 {
		return LoadBalance{}
	}
	lb := LoadBalance{N: len(loads), Min: math.MaxFloat64}
	sum := 0.0
	for _, x := range loads {
		v := float64(x)
		sum += v
		if v < lb.Min {
			lb.Min = v
		}
		if v > lb.Max {
			lb.Max = v
		}
	}
	lb.Mean = sum / float64(len(loads))
	if sum == 0 {
		lb.Min = 0
		return LoadBalance{N: len(loads)}
	}
	varsum := 0.0
	for _, x := range loads {
		d := float64(x) - lb.Mean
		varsum += d * d
	}
	lb.CV = math.Sqrt(varsum/float64(len(loads))) / lb.Mean
	lb.Gini = gini(loads)
	lb.MaxOverMean = lb.Max / lb.Mean
	return lb
}

// gini computes the Gini coefficient of non-negative values.
func gini(loads []int64) float64 {
	sorted := append([]int64(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := float64(len(sorted))
	var cum, weighted float64
	for i, x := range sorted {
		v := float64(x)
		cum += v
		weighted += v * float64(i+1)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - (n+1)*cum) / (n * cum)
}

// ChannelBalance computes load balance over the grid's existing physical
// channels, given the dense per-slot flit counts from
// network.ChannelFlitCounts (mesh boundary slots are excluded).
func ChannelBalance(g *topology.Grid, counts []int64) LoadBalance {
	existing := make([]int64, 0, g.NumChannels())
	for ch, c := range counts {
		id, dim, dir := g.ChannelInfo(ch)
		if g.HasChannel(id, dim, dir) {
			existing = append(existing, c)
		}
	}
	return Balance(existing)
}

// String renders the balance summary on one line.
func (lb LoadBalance) String() string {
	return fmt.Sprintf("n=%d mean=%.1f max/mean=%.2f cv=%.3f gini=%.3f",
		lb.N, lb.Mean, lb.MaxOverMean, lb.CV, lb.Gini)
}
