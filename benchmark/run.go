package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"wormsim/internal/core"
	"wormsim/internal/runstore"
)

// outcome is what one workload run reports: the last-line JSON object of
// the benchmark contract, before encoding.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints metrics by name and unit as they are set and collects them
// for the outcome.
type report struct {
	w       io.Writer
	defs    []metricDef
	metrics map[string]metricValue
}

func newReport(w io.Writer, workload string, defs []metricDef) *report {
	fmt.Fprintf(w, "== %s\n", workload)
	return &report{w: w, defs: defs, metrics: make(map[string]metricValue)}
}

func (r *report) def(name string) metricDef {
	for _, d := range r.defs {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not in the metric tables")
}

// set records a metric; note is free text printed beside it.
func (r *report) set(name string, v float64, note string) {
	d := r.def(name)
	r.metrics[name] = metricValue{Value: v, Unit: d.Unit}
	fmt.Fprintf(r.w, "%-36s %14.6g %-6s %s\n", name, v, d.Unit, note)
}

// timing records a timing metric with its per-round values and their
// spread, marked unresolved when the rounds disagree by more than the
// metric's regression bound.
func (r *report) timing(name string, v float64, perRound []float64) {
	parts := make([]string, len(perRound))
	for i, x := range perRound {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	note := fmt.Sprintf("rounds=[%s]", strings.Join(parts, " "))
	if len(perRound) > 1 {
		s := spread(perRound)
		note += fmt.Sprintf(" spread=%.1f%%", 100*s)
		if b := r.def(name).Bound; b > 0 && s > b {
			note += " unresolved"
		}
	}
	r.set(name, v, note)
}

// finish fills every metric of the tables the run did not set with 0 (a
// layer that does no work on this workload) and builds the outcome.
func (r *report) finish(ck *checker) outcome {
	for _, d := range r.defs {
		if _, ok := r.metrics[d.Name]; !ok {
			r.set(d.Name, 0, "(no work on this workload)")
		}
	}
	for _, n := range ck.notes {
		fmt.Fprintf(r.w, "FAILED CHECK %s\n", n)
	}
	fmt.Fprintf(r.w, "result_digest %s\n", ck.digest)
	fmt.Fprintf(r.w, "%-36s %14.6g %-6s failed=%d attempted=%d\n", "failed_share",
		float64(ck.failed())/float64(ck.attempted), "share", ck.failed(), ck.attempted)
	return outcome{Correct: ck.failed() == 0, Attempted: ck.attempted, Failed: ck.failed(), Metrics: r.metrics}
}

func column(rounds []roundData, pick func(roundData) []float64) [][]float64 {
	out := make([][]float64, len(rounds))
	for i, rd := range rounds {
		out[i] = pick(rd)
	}
	return out
}

func totals(cols [][]float64) []float64 {
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = sum(c)
	}
	return out
}

func simCycles(results []core.Result) float64 {
	var c int64
	for _, r := range results {
		c += r.Cycles
	}
	return float64(c)
}

// runEndToEnd is the untraced run: set-up, as many cold rounds as fit the
// budget, the warm reruns alternating with further set-ups, the checks.
func runEndToEnd(w io.Writer, sp spec, o options) (outcome, error) {
	rep := newReport(w, sp.name, endToEnd)
	t0 := now()
	e, err := setUp(sp, o)
	if err != nil {
		return outcome{}, err
	}
	setups := []float64{since(t0).Seconds()}
	defer e.close()

	// Cold rounds, each through a fresh store as the CLIs' -store gives.
	// The first always completes: a workload's grid is never cut to fit.
	start := now()
	var rounds []roundData
	lastDir := ""
	for r := 0; r < o.maxRounds; r++ {
		store := e.store
		if r > 0 {
			expect := sumOfMins(column(rounds, func(rd roundData) []float64 { return rd.wall }))
			if since(start).Seconds()+expect > o.seconds-o.warmSeconds {
				break
			}
			var err error
			if store, err = runstore.Open(filepath.Join(e.dir, fmt.Sprintf("round%d", r))); err != nil {
				return outcome{}, err
			}
		}
		rd, err := runRound(e, store, nil)
		if cerr := store.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("benchmark: close store: %w", cerr)
		}
		if err != nil {
			return outcome{}, err
		}
		rounds = append(rounds, rd)
		lastDir = filepath.Dir(store.Path())
	}

	more, warmMs, warm, err := warmPhase(sp, o, e, lastDir)
	if err != nil {
		return outcome{}, err
	}
	setups = append(setups, more...)
	ck, err := verify(sp, o, rounds, warm)
	if err != nil {
		return outcome{}, err
	}

	walls := column(rounds, func(rd roundData) []float64 { return rd.wall })
	cpus := column(rounds, func(rd roundData) []float64 { return rd.cpu })
	wall := sumOfMins(walls)
	cycles := simCycles(rounds[0].flat())
	rep.timing("cold_wall_s", wall, totals(walls))
	rep.timing("cold_cpu_s", sumOfMins(cpus), totals(cpus))
	perRound := totals(walls)
	for i := range perRound {
		perRound[i] = cycles / perRound[i]
	}
	rep.timing("sim_cycles_per_s", cycles/wall, perRound)
	rep.set("warm_wall_ms", quietest(warmMs), fmt.Sprintf("min of n=%d; p05=%.4g median=%.4g p80=%.4g",
		len(warmMs), quantile(warmMs, 0.05), quantile(warmMs, 0.5), quantile(warmMs, 0.8)))
	rep.set("alloc_mb", rounds[0].allocMB, "TotalAlloc over the first cold round")
	rep.set("setup_s", quietest(setups), fmt.Sprintf("min of n=%d; p05=%.4g median=%.4g p80=%.4g",
		len(setups), quantile(setups, 0.05), quantile(setups, 0.5), quantile(setups, 0.8)))
	return rep.finish(ck), nil
}
