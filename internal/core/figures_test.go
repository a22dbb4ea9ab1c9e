package core

import (
	"reflect"
	"strings"
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
	fr, err := RunFigure(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Series) != 2 {
		t.Fatalf("series = %d", len(fr.Series))
	}
	// One task set across algorithms must reproduce each algorithm's own
	// one-worker sweep exactly.
	for i, s := range fr.Series {
		if s.Algorithm != spec.Algorithms[i] {
			t.Fatalf("series %d is %s, want %s", i, s.Algorithm, spec.Algorithms[i])
		}
		cfg := base
		cfg.Algorithm, cfg.Pattern, cfg.Switching = s.Algorithm, spec.Pattern, spec.Switching
		want, err := SweepN(cfg, spec.Loads, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Results, want) {
			t.Errorf("%s: figure series diverged from its one-worker sweep:\ngot:  %+v\nwant: %+v", s.Algorithm, s.Results, want)
		}
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
