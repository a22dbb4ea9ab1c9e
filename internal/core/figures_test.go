package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestFiguresSpecIntegrity(t *testing.T) {
	specs := Figures()
	if len(specs) != 4 {
		t.Fatalf("want 4 experiments (fig3, fig4, fig5, vct), got %d", len(specs))
	}
	wantIDs := []string{"fig3", "fig4", "fig5", "vct"}
	for i, spec := range specs {
		if spec.ID != wantIDs[i] {
			t.Errorf("spec %d id = %q, want %q", i, spec.ID, wantIDs[i])
		}
		if len(spec.Loads) != 10 {
			t.Errorf("%s: %d loads, want the paper's 10-point axis", spec.ID, len(spec.Loads))
		}
		if spec.Title == "" || spec.Pattern == "" {
			t.Errorf("%s: missing title or pattern", spec.ID)
		}
	}
	// Figures 3-5 carry all six paper algorithms; the VCT experiment the
	// three of sec. 3.4.
	for _, id := range []string{"fig3", "fig4", "fig5"} {
		spec, err := FigureByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Algorithms) != 6 {
			t.Errorf("%s has %d algorithms, want 6", id, len(spec.Algorithms))
		}
		if spec.Switching != Wormhole {
			t.Errorf("%s switching = %v", id, spec.Switching)
		}
	}
	vct, _ := FigureByID("vct")
	if len(vct.Algorithms) != 3 || vct.Switching != CutThrough {
		t.Errorf("vct spec wrong: %+v", vct)
	}
	if _, err := FigureByID("fig9"); err == nil {
		t.Error("unknown figure id accepted")
	}
}

func TestFigurePatternsMatchPaper(t *testing.T) {
	f3, _ := FigureByID("fig3")
	if f3.Pattern != "uniform" {
		t.Errorf("fig3 pattern %q", f3.Pattern)
	}
	f4, _ := FigureByID("fig4")
	if f4.Pattern != "hotspot:0.04:255" {
		t.Errorf("fig4 pattern %q, want the 4%% hotspot at node (15,15)", f4.Pattern)
	}
	f5, _ := FigureByID("fig5")
	if f5.Pattern != "local:3" {
		t.Errorf("fig5 pattern %q, want the 7x7 box", f5.Pattern)
	}
}

// sequentialFigure is the reference RunFigure is held to: every point of
// spec run by Run in order, one fresh engine each.
func sequentialFigure(t *testing.T, spec FigureSpec, base Config) []Series {
	t.Helper()
	want := make([]Series, len(spec.Algorithms))
	for a, alg := range spec.Algorithms {
		want[a].Algorithm = alg
		for _, load := range spec.Loads {
			cfg := base
			cfg.Algorithm, cfg.Pattern, cfg.Switching, cfg.OfferedLoad = alg, spec.Pattern, spec.Switching, load
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[a].Results = append(want[a].Results, r)
		}
	}
	return want
}

// TestRunFigureCallback: onDone fires once per point, and its flat index
// names the point's Series cell, algorithm-major.
func TestRunFigureCallback(t *testing.T) {
	spec := FigureSpec{ID: "cb", Pattern: "uniform", Switching: Wormhole,
		Algorithms: []string{"ecube", "nbc"}, Loads: []float64{0.1, 0.3, 0.5}}
	var mu sync.Mutex
	seen := map[int]Result{}
	fr, err := RunFigure(spec, quick(""), func(i int, r Result) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := seen[i]; dup {
			t.Errorf("callback fired twice for index %d", i)
		}
		seen[i] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	nl, n := len(spec.Loads), len(spec.Algorithms)*len(spec.Loads)
	if len(seen) != n {
		t.Fatalf("callback fired for %d distinct indices, want %d", len(seen), n)
	}
	for i, r := range seen {
		if i < 0 || i >= n {
			t.Fatalf("callback index %d out of range", i)
		}
		if cell := fr.Series[i/nl].Results[i%nl]; !reflect.DeepEqual(r, cell) {
			t.Errorf("index %d: callback result (%s rho=%g) is not Series[%d].Results[%d] (%s rho=%g)",
				i, r.Algorithm, r.OfferedLoad, i/nl, i%nl, cell.Algorithm, cell.OfferedLoad)
		}
	}
}

// TestRunFigureTiny drives the full figure machinery on a reduced spec.
func TestRunFigureTiny(t *testing.T) {
	spec := FigureSpec{
		ID:         "tiny",
		Title:      "reduced fig3",
		Pattern:    "uniform",
		Switching:  Wormhole,
		Algorithms: []string{"ecube", "nbc"},
		Loads:      []float64{0.1, 0.4},
	}
	base := Config{
		K: 8, N: 2, Seed: 3,
		WarmupCycles: 400, SampleCycles: 400, GapCycles: 100, MaxSamples: 4,
	}
	fr, err := RunFigure(spec, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One task set across algorithms must reproduce a sequential Run of
	// every point exactly.
	if want := sequentialFigure(t, spec, base); !reflect.DeepEqual(fr.Series, want) {
		t.Errorf("figure diverged from sequential Runs:\ngot:  %+v\nwant: %+v", fr.Series, want)
	}

	var table strings.Builder
	fr.WriteTable(&table)
	out := table.String()
	for _, want := range []string{"tiny", "average latency", "achieved channel utilization", "ecube", "nbc", "0.10", "0.40"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	var csv strings.Builder
	fr.WriteCSV(&csv)
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+4 {
		t.Errorf("csv has %d lines, want header + 4 rows:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "figure,algorithm,offered") {
		t.Errorf("csv header %q", lines[0])
	}

	peaks := fr.Peaks()
	if len(peaks) != 2 {
		t.Fatalf("peaks = %v", peaks)
	}
	if peaks[0].Throughput < peaks[1].Throughput {
		t.Error("peaks not sorted descending")
	}
	// At 8x8 with these loads, nbc must beat ecube on peak throughput.
	if peaks[0].Algorithm != "nbc" {
		t.Errorf("expected nbc on top, got %+v", peaks)
	}
}
