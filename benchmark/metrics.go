package main

import (
	"math"
	"sort"
)

// metricDef is one row of BENCHMARK.json. The tables below are the single
// source of the metric names, units and bounds; TestManifestMatches holds
// BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported by the
// untraced run for every workload. Bound is the share of the parent's
// median by which the metric may worsen.
var endToEnd = []metricDef{
	{"cold_wall_s", "s", "lower", 0.25},
	{"cold_cpu_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	{"warm_wall_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// phaseNames are the engine phases of telemetry.PhaseProfiler, in wire
// order; paperAlgs the six algorithms whose step cost is reported apart.
var (
	phaseNames = []string{"inject", "route", "eject", "transfer", "watchdog"}
	paperAlgs  = []string{"nbc", "phop", "nhop", "2pn", "ecube", "nlast"}
)

// perLayer are the single-module metrics of the traced run, named
// module.metric. A metric whose module does no work on a workload reads 0
// there (batch metrics on sequential workloads, observer overheads off
// fig4_observed, algorithms outside the workload's grid).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "network.step_ns_per_cycle", Unit: "ns", Better: "lower"},
		{Name: "network.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	}
	for _, p := range phaseNames {
		defs = append(defs, metricDef{Name: "network." + p + "_share", Unit: "share", Better: "lower"})
	}
	for _, a := range paperAlgs {
		defs = append(defs, metricDef{Name: "network.step_ns_per_cycle." + a, Unit: "ns", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "network.batch_ns_per_replica_cycle", Unit: "ns", Better: "lower"},
		metricDef{Name: "network.cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "network.flit_hops", Unit: "count", Better: "lower"},
		metricDef{Name: "network.delivered", Unit: "count", Better: "higher"},
		metricDef{Name: "network.dropped", Unit: "count", Better: "lower"},
		metricDef{Name: "network.setup_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "traffic.setup_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.overhead_share", Unit: "share", Better: "lower"},
		metricDef{Name: "core.samples_mean", Unit: "count", Better: "lower"},
		metricDef{Name: "core.converged_share", Unit: "share", Better: "higher"},
		metricDef{Name: "core.point_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.point_tail_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.hash_us", Unit: "us", Better: "lower"},
		metricDef{Name: "core.allocs_per_point", Unit: "count", Better: "lower"},
		metricDef{Name: "core.heap_peak_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "core.sweep_speedup_w2", Unit: "ratio", Better: "higher"},
		metricDef{Name: "stats.add_ns_per_delivery", Unit: "ns", Better: "lower"},
		metricDef{Name: "runstore.open_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "runstore.lookup_us", Unit: "us", Better: "lower"},
		metricDef{Name: "runstore.store_us", Unit: "us", Better: "lower"},
		metricDef{Name: "runstore.bytes_per_record", Unit: "B", Better: "lower"},
		metricDef{Name: "telemetry.overhead_share", Unit: "share", Better: "lower"},
		metricDef{Name: "forensics.overhead_share", Unit: "share", Better: "lower"},
		metricDef{Name: "observatory.overhead_share", Unit: "share", Better: "lower"},
		metricDef{Name: "observatory.frames", Unit: "count", Better: "higher"},
		metricDef{Name: "observatory.dropped_frames", Unit: "count", Better: "lower"},
		metricDef{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	)
}()

// sumOfMins is the timing aggregator: the sum over units of each unit's
// minimum over rounds. Work per unit is deterministic, so host noise is
// additive and the minimum is the least contaminated reading; rounds[r][u]
// is unit u's reading in round r.
func sumOfMins(rounds [][]float64) float64 {
	var sum float64
	for u := range rounds[0] {
		sum += minAcross(rounds, u)
	}
	return sum
}

func minAcross(rounds [][]float64, u int) float64 {
	m := rounds[0][u]
	for _, r := range rounds[1:] {
		m = math.Min(m, r[u])
	}
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile interpolates linearly at rank q*(n-1) of the sorted values.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quietest is the aggregator of the millisecond operations (warm rerun,
// set-up): the minimum of repetitions spread over seconds. The host shares
// its cores, so such an operation runs either undisturbed or at some
// fraction of its speed, and in a busy spell all but a few percent of the
// repetitions are disturbed: every quantile from the 5th percentile up then
// lands in one mode or the other from run to run. The work is deterministic
// and the noise only adds, so the minimum is the undisturbed reading as long
// as one repetition in the window escaped.
func quietest(xs []float64) float64 { return quantile(xs, 0) }

// nthSlowest returns the n-th largest value (n=1 is the maximum), or the
// minimum when there are fewer than n values. With n=11 it is the highest
// percentile that still has ten samples beyond it.
func nthSlowest(xs []float64, n int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n > len(s) {
		n = len(s)
	}
	return s[len(s)-n]
}

// spread is (max-min)/min over the per-round totals of a timing metric.
func spread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}
