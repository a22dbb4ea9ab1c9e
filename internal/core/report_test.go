package core

import (
	"strings"
	"testing"
)

func TestWriteMarkdown(t *testing.T) {
	fr := FigureResult{
		Spec: FigureSpec{
			ID: "figX", Title: "synthetic", Pattern: "uniform", Switching: Wormhole,
			Loads: []float64{0.2, 0.4},
		},
		Series: []Series{
			{Algorithm: "fast", Results: []Result{
				{OfferedLoad: 0.2, Throughput: 0.2, AvgLatency: 25},
				{OfferedLoad: 0.4, Throughput: 0.39, AvgLatency: 40},
			}},
			{Algorithm: "slow", Results: []Result{
				{OfferedLoad: 0.2, Throughput: 0.2, AvgLatency: 30},
				{OfferedLoad: 0.4, Throughput: 0.25, AvgLatency: 300, Deadlocked: false},
			}},
		},
	}
	var b strings.Builder
	fr.WriteMarkdown(&b)
	out := b.String()
	for _, want := range []string{
		"## figX — synthetic",
		"| offered | fast | slow |",
		"| 0.40 | 40.0 | 300.0 |",
		"| 0.40 | 0.390 | 0.250 |",
		"### Peaks",
		"| fast | 0.390 | 0.40 | - |",
		"| slow | 0.250 | 0.40 | 0.40 |", // saturates at 0.4 (0.4 - 0.25 > 0.02)
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMarkdownDeadlockCell(t *testing.T) {
	fr := FigureResult{
		Spec: FigureSpec{ID: "figY", Title: "t", Pattern: "uniform", Switching: Wormhole, Loads: []float64{0.5}},
		Series: []Series{{Algorithm: "bad", Results: []Result{
			{OfferedLoad: 0.5, Deadlocked: true},
		}}},
	}
	var b strings.Builder
	fr.WriteMarkdown(&b)
	if !strings.Contains(b.String(), "deadlock") {
		t.Errorf("deadlocked point not marked:\n%s", b.String())
	}
}

// TestWriteMarkdownSaturationSkipsDeadlock: a deadlocked point's collapsed
// throughput does not mark where a series saturates, just as it does not
// win the peak.
func TestWriteMarkdownSaturationSkipsDeadlock(t *testing.T) {
	fr := FigureResult{
		Spec: FigureSpec{ID: "figW", Title: "t", Pattern: "uniform", Switching: Wormhole, Loads: []float64{0.1, 0.2, 0.3}},
		Series: []Series{{Algorithm: "wedge", Results: []Result{
			{OfferedLoad: 0.1, Throughput: 0.01, Deadlocked: true},
			{OfferedLoad: 0.2, Throughput: 0.2, AvgLatency: 30, Converged: true},
			{OfferedLoad: 0.3, Throughput: 0.25, AvgLatency: 90, Converged: true},
		}}},
	}
	var b strings.Builder
	fr.WriteMarkdown(&b)
	if want := "| wedge | 0.250 | 0.30 | 0.30 |"; !strings.Contains(b.String(), want) {
		t.Errorf("peak row is not %q:\n%s", want, b.String())
	}
}

func TestWriteMarkdownShortSeries(t *testing.T) {
	fr := FigureResult{
		Spec: FigureSpec{ID: "figZ", Title: "t", Pattern: "uniform", Switching: Wormhole, Loads: []float64{0.1, 0.2}},
		Series: []Series{{Algorithm: "partial", Results: []Result{
			{OfferedLoad: 0.1, Throughput: 0.1, AvgLatency: 20},
		}}},
	}
	var b strings.Builder
	fr.WriteMarkdown(&b)
	if !strings.Contains(b.String(), "| - |") {
		t.Errorf("missing placeholder for absent point:\n%s", b.String())
	}
}
