package core

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// FigureSpec defines one of the paper's evaluation figures as code: the
// traffic pattern, switching technique, algorithms and offered-load axis
// whose sweep regenerates its latency and throughput curves.
type FigureSpec struct {
	// ID is the experiment id from DESIGN.md (fig3, fig4, fig5, vct).
	ID string
	// Title is the paper's caption.
	Title string
	// Pattern, Switching and Algorithms identify the sweep.
	Pattern    string
	Switching  Switching
	Algorithms []string
	// Loads is the offered-channel-utilization axis.
	Loads []float64
}

// paperLoads is the offered-load axis of Figures 3-5 (fraction of
// capacity).
var paperLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// paperAlgs is the paper's presentation order: the three hop schemes, 2pn,
// then the non- and partially-adaptive baselines.
var paperAlgs = []string{"nbc", "phop", "nhop", "2pn", "ecube", "nlast"}

// Figures returns the paper's experiments in order: Figures 3, 4, 5 and the
// sec. 3.4 virtual cut-through comparison.
func Figures() []FigureSpec {
	return []FigureSpec{
		{
			ID:         "fig3",
			Title:      "Performance of the routing algorithms for uniform traffic (16-flit worms)",
			Pattern:    "uniform",
			Switching:  Wormhole,
			Algorithms: paperAlgs,
			Loads:      paperLoads,
		},
		{
			ID:         "fig4",
			Title:      "Performance for 4% hotspot traffic (hot node (15,15))",
			Pattern:    "hotspot:0.04:255",
			Switching:  Wormhole,
			Algorithms: paperAlgs,
			Loads:      paperLoads,
		},
		{
			ID:         "fig5",
			Title:      "Performance for local traffic with 0.4 locality fraction (7x7 box)",
			Pattern:    "local:3",
			Switching:  Wormhole,
			Algorithms: paperAlgs,
			Loads:      paperLoads,
		},
		{
			ID:         "vct",
			Title:      "Sec 3.4: virtual cut-through routing of 16-flit packets, uniform traffic",
			Pattern:    "uniform",
			Switching:  CutThrough,
			Algorithms: []string{"nbc", "2pn", "ecube"},
			Loads:      paperLoads,
		},
	}
}

// FigureByID returns the spec with the given id.
func FigureByID(id string) (FigureSpec, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	ids := make([]string, 0, 4)
	for _, f := range Figures() {
		ids = append(ids, f.ID)
	}
	return FigureSpec{}, fmt.Errorf("core: unknown figure %q (have %s)", id, strings.Join(ids, ", "))
}

// Series is one algorithm's curve within a figure.
type Series struct {
	Algorithm string
	Results   []Result
}

// FigureResult is a fully evaluated figure.
type FigureResult struct {
	Spec   FigureSpec
	Series []Series
}

// RunFigure sweeps every algorithm of the spec over its load axis, each
// (algorithm, load) point its own index of the fan-out across the machine's
// cores, so no algorithm waits for another's slowest point. base supplies
// shared settings (sizes, seeds, methodology); its Algorithm, Pattern,
// Switching and OfferedLoad fields are overridden by the spec. Every point
// equals a sequential Run of its config.
// Deadlocked points are recorded in their Result and do not abort the
// figure; any other error does.
//
// onDone, if set, is invoked once per finished point with its flat index i
// (algorithm-major: the point is Series[i/len(Loads)].Results[i%len(Loads)])
// and its Result. It and the Config hooks (OnSample, OnTick, a shared
// PhaseProf) fire from whichever worker ran the point, so they must be safe
// for concurrent use — telemetry.Progress and observatory.Publisher are.
func RunFigure(spec FigureSpec, base Config, onDone func(i int, r Result)) (FigureResult, error) {
	fr := FigureResult{Spec: spec, Series: make([]Series, len(spec.Algorithms))}
	for a, alg := range spec.Algorithms {
		fr.Series[a] = Series{Algorithm: alg, Results: make([]Result, len(spec.Loads))}
	}
	base.Pattern = spec.Pattern
	base.Switching = spec.Switching
	nl := len(spec.Loads)
	err := each(runtime.GOMAXPROCS(0), len(spec.Algorithms)*nl, func(k int) error { //lint:allow purity (worker count only sets parallelism; results are bit-identical at any width, test-pinned)
		s := &fr.Series[k/nl]
		cfg := base
		cfg.Algorithm = s.Algorithm
		cfg.OfferedLoad = spec.Loads[k%nl]
		r, _, err := RunCached(cfg)
		s.Results[k%nl] = r
		if onDone != nil {
			onDone(k, r)
		}
		if err != nil && !r.Deadlocked {
			return fmt.Errorf("core: figure %s, algorithm %s, rho=%.3g: %w", spec.ID, s.Algorithm, cfg.OfferedLoad, err)
		}
		return nil
	})
	return fr, err
}

// WriteTable renders the figure as two aligned text tables (latency, then
// achieved throughput), one row per offered load, one column per algorithm
// — the textual equivalent of the paper's two plots per figure.
func (fr FigureResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", fr.Spec.ID, fr.Spec.Title)
	writeGrid(w, "average latency (cycles)", fr, func(r Result) string { return cell(r, "%.1f", r.AvgLatency, true) })
	writeGrid(w, "achieved channel utilization", fr, func(r Result) string { return cell(r, "%.3f", r.Throughput, true) })
}

// cell renders one table entry of a figure: v in format, or the point's
// State where the value means nothing. Only deadlocked points have no
// value; abbrev shortens their label to fit the text table's columns.
func cell(r Result, format string, v float64, abbrev bool) string {
	if st := r.State(); st == "deadlock" {
		if abbrev {
			return "dlock"
		}
		return st
	}
	return fmt.Sprintf(format, v)
}

// writeGrid renders one metric grid.
func writeGrid(w io.Writer, title string, fr FigureResult, cell func(Result) string) {
	fmt.Fprintf(w, "## %s\n", title)
	fmt.Fprintf(w, "%-8s", "offered")
	for _, s := range fr.Series {
		fmt.Fprintf(w, "%10s", s.Algorithm)
	}
	fmt.Fprintln(w)
	for i, load := range fr.Spec.Loads {
		fmt.Fprintf(w, "%-8.2f", load)
		for _, s := range fr.Series {
			if i < len(s.Results) {
				fmt.Fprintf(w, "%10s", cell(s.Results[i]))
			} else {
				fmt.Fprintf(w, "%10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders the figure as CSV rows:
// figure,algorithm,offered,latency,bound,throughput,drops,state.
func (fr FigureResult) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "figure,algorithm,offered,latency,latency_bound,throughput,injection_rate,dropped,delivered,state")
	for _, s := range fr.Series {
		for _, r := range s.Results {
			fmt.Fprintf(w, "%s,%s,%.3f,%.2f,%.2f,%.4f,%.5f,%d,%d,%s\n",
				fr.Spec.ID, s.Algorithm, r.OfferedLoad, r.AvgLatency, r.LatencyBound,
				r.Throughput, r.InjectionRate, r.Dropped, r.Delivered, r.State())
		}
	}
}

// Peaks summarizes each series' peak throughput, sorted descending — the
// scalar claims of experiment S-PEAK.
func (fr FigureResult) Peaks() []Peak {
	peaks := make([]Peak, 0, len(fr.Series))
	for _, s := range fr.Series {
		p, at := PeakThroughput(s.Results)
		peaks = append(peaks, Peak{Algorithm: s.Algorithm, Throughput: p, AtLoad: at})
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].Throughput > peaks[j].Throughput })
	return peaks
}

// Peak is one algorithm's peak achieved throughput.
type Peak struct {
	Algorithm  string
	Throughput float64
	AtLoad     float64
}
