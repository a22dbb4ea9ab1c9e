package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// syntheticFigure is a two-algorithm figure with one point of each state:
// converged, stopped at MaxSamples, and deadlocked. The deadlocked point's
// throughput is below its series' peak, so the peak each writer reports
// does not depend on whether deadlocked points may win it.
func syntheticFigure() FigureResult {
	spec := FigureSpec{
		ID: "synth", Title: "Synthetic <figure> & friends", Pattern: "hotspot:0.04:5", Switching: CutThrough,
		Algorithms: []string{"nbc", "ecube"}, Loads: []float64{0.1, 0.2, 0.3},
	}
	pt := func(load, lat, bound, thr float64, conv, dead bool) Result {
		return Result{
			OfferedLoad: load, AvgLatency: lat, LatencyBound: bound, Throughput: thr,
			InjectionRate: load / 8, Dropped: int64(load * 100), Delivered: int64(load * 10000),
			Converged: conv, Deadlocked: dead,
		}
	}
	return FigureResult{Spec: spec, Series: []Series{
		{Algorithm: "nbc", Results: []Result{
			pt(0.1, 31.25, 0.5, 0.1, true, false),
			pt(0.2, 47.75, 3.125, 0.195, false, false),
			pt(0.3, 120.5, 9.5, 0.255, true, false),
		}},
		{Algorithm: "ecube", Results: []Result{
			pt(0.1, 33.5, 0.75, 0.1, true, false),
			pt(0.2, 250.25, 80, 0.17, false, false),
			pt(0.3, 900, 0, 0.12, false, true),
		}},
	}}
}

// TestFigureWritersGolden pins the text table, markdown and CSV renderings
// of one figure byte for byte.
func TestFigureWritersGolden(t *testing.T) {
	fr := syntheticFigure()
	var b bytes.Buffer
	fr.WriteTable(&b)
	b.WriteString("----\n")
	fr.WriteMarkdown(&b)
	b.WriteString("----\n")
	fr.WriteCSV(&b)
	path := filepath.Join("testdata", "figure_writers.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("figure writers drifted from %s (re-run with -update if intended)\ngot:\n%s", path, b.Bytes())
	}
}
