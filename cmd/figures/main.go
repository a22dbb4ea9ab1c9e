// Command figures regenerates the paper's evaluation: Figures 3, 4 and 5
// (uniform, 4% hotspot and 0.4-locality traffic on a 16-ary 2-cube, six
// routing algorithms, latency and achieved throughput versus offered load)
// and the section 3.4 virtual cut-through comparison, plus the peak
// throughput summary the text reports.
//
// Examples:
//
//	figures                 # all figures, text tables
//	figures -fig 3          # Figure 3 only
//	figures -fig vct        # sec. 3.4 experiment
//	figures -csv > out.csv  # CSV for plotting
//	figures -quick          # shorter sampling (sanity pass)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wormsim/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command; main turns a returned error into exit status 1.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to run: 3, 4, 5, vct (default: all)")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	md := fs.Bool("md", false, "emit markdown report sections instead of tables")
	quick := fs.Bool("quick", false, "shorter warmup/sampling for a fast sanity pass")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	// A flag the chosen output would ignore is a usage error, not a silent
	// no-op.
	if *md && *csv {
		return errors.New("-md and -csv each choose the output; give at most one")
	}

	base := core.Config{Seed: *seed}
	if *quick {
		base.WarmupCycles, base.SampleCycles, base.GapCycles = 2000, 1000, 300
		base.MaxSamples = 5
	}

	specs := core.Figures()
	if *fig != "" {
		id := *fig
		if id == "3" || id == "4" || id == "5" {
			id = "fig" + id
		}
		spec, err := core.FigureByID(id)
		if err != nil {
			return err
		}
		specs = []core.FigureSpec{spec}
	}

	for _, spec := range specs {
		start := time.Now()
		fr, err := core.RunFigure(spec, base, nil)
		if err != nil {
			return err
		}
		switch {
		case *md:
			fr.WriteMarkdown(stdout)
		case *csv:
			fr.WriteCSV(stdout)
		default:
			fr.WriteTable(stdout)
			fmt.Fprintf(stdout, "## peaks\n")
			for _, p := range fr.Peaks() {
				fmt.Fprintf(stdout, "  %-7s %.3f at offered %.2f\n", p.Algorithm, p.Throughput, p.AtLoad)
			}
		}
		fmt.Fprintf(stderr, "# %s done in %.1fs\n", spec.ID, time.Since(start).Seconds())
	}
	return nil
}
