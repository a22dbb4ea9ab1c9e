package core

import (
	"fmt"
	"io"
)

// WriteMarkdown renders the figure as a markdown report section: latency
// and throughput tables, the peak summary, and per-series saturation notes
// — the machine-generated counterpart of EXPERIMENTS.md. A series saturates
// near the first load whose achieved throughput falls more than 0.02 short
// of the offered load; deadlocked points are skipped there, as the peak
// skips them.
func (fr FigureResult) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", fr.Spec.ID, fr.Spec.Title)
	fmt.Fprintf(w, "Pattern `%s`, %s switching.\n\n", fr.Spec.Pattern, fr.Spec.Switching)

	writeMarkdownGrid(w, "Average latency (cycles)", fr, func(r Result) string { return cell(r, "%.1f", r.AvgLatency, false) })
	writeMarkdownGrid(w, "Achieved channel utilization", fr, func(r Result) string { return cell(r, "%.3f", r.Throughput, false) })

	fmt.Fprintf(w, "### Peaks\n\n")
	fmt.Fprintf(w, "| algorithm | peak throughput | at offered | saturates near |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	for _, p := range fr.Peaks() {
		sat := "-"
		for _, s := range fr.Series {
			if s.Algorithm != p.Algorithm {
				continue
			}
			for _, r := range s.Results {
				if !r.Deadlocked && r.OfferedLoad-r.Throughput > 0.02 {
					sat = fmt.Sprintf("%.2f", r.OfferedLoad)
					break
				}
			}
		}
		fmt.Fprintf(w, "| %s | %.3f | %.2f | %s |\n", p.Algorithm, p.Throughput, p.AtLoad, sat)
	}
	fmt.Fprintln(w)
}

// writeMarkdownGrid renders one metric as a markdown table.
func writeMarkdownGrid(w io.Writer, title string, fr FigureResult, cell func(Result) string) {
	fmt.Fprintf(w, "### %s\n\n", title)
	fmt.Fprintf(w, "| offered |")
	for _, s := range fr.Series {
		fmt.Fprintf(w, " %s |", s.Algorithm)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range fr.Series {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for i, load := range fr.Spec.Loads {
		fmt.Fprintf(w, "| %.2f |", load)
		for _, s := range fr.Series {
			if i < len(s.Results) {
				fmt.Fprintf(w, " %s |", cell(s.Results[i]))
			} else {
				fmt.Fprintf(w, " - |")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
