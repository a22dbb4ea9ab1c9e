// Command cdg runs the channel-dependency-graph analyzer: it enumerates
// every routing state of an algorithm on an exact small topology instance
// and reports whether the dependency graph is acyclic (the Dally–Seitz
// deadlock-freedom criterion) or prints a concrete cycle witness.
//
// Examples:
//
//	cdg                        # all algorithms on a 4-ary 2-cube torus
//	cdg -alg nlast -k 6        # one algorithm, 6-ary torus
//	cdg -alg 2pnsrc -witness   # show the cycle that wedges the source tag
//	cdg -alg 2pn -mesh         # Dally's mesh scheme
//	cdg -certify               # full certification matrix -> cdg_certificates.json
//
// In -certify mode the exhaustive analyzer runs over every registered
// algorithm × the full mesh/torus radix/dimension matrix, writes a
// machine-readable certificate file, and exits non-zero if any cell
// contradicts its registered expectation (the CI deadlock-freedom gate).
//
// Note that for fully adaptive algorithms a cycle here does NOT prove a
// deadlock can occur (adaptive routing may escape; Duato's theory applies);
// an acyclic result IS a proof of deadlock freedom for the analyzed
// instance.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wormsim/internal/cdg"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
)

// errCycle and errMismatch mark verdicts rather than failures — a dependency
// cycle in an analyzed algorithm, a -certify cell that contradicts its
// registered expectation — so the process exits 2 rather than 1.
var (
	errCycle    = errors.New("dependency cycle found")
	errMismatch = errors.New("certification mismatch")
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdg: %v\n", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's error to the process status: 0 on success, 2 for a
// cycle or a certification mismatch, 1 for anything else.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errCycle), errors.Is(err, errMismatch):
		return 2
	}
	return 1
}

// run is the whole command; main turns its error into the exit status.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cdg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algName := fs.String("alg", "", "algorithm to analyze (default: all); one of "+strings.Join(routing.Names(), ", "))
	k := fs.Int("k", 4, "radix (keep small: the analysis is exact)")
	n := fs.Int("n", 2, "dimensions")
	mesh := fs.Bool("mesh", false, "mesh instead of torus")
	witness := fs.Bool("witness", false, "print the cycle witness if one exists")
	certify := fs.Bool("certify", false, "run the full certification matrix and write -o")
	out := fs.String("o", "cdg_certificates.json", "certificate output path for -certify")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *certify {
		cert, err := cdg.Certify(nil)
		if err != nil {
			return err
		}
		return runCertify(cert, *out, stdout, stderr)
	}

	g := topology.New(*k, *n, *mesh)

	names := routing.Names()
	if *algName != "" {
		names = []string{*algName}
	}
	cyclic := 0
	for _, name := range names {
		alg, err := routing.Get(name)
		if err != nil {
			return err
		}
		if err := alg.Compatible(g); err != nil {
			fmt.Fprintf(stdout, "%-8s on %s: skipped (%v)\n", name, g, err)
			continue
		}
		res, err := cdg.Analyze(g, alg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res)
		if !res.Acyclic() {
			cyclic++
			if *witness {
				fmt.Fprintln(stdout, "  "+res.DescribeCycle(g))
			}
		}
	}
	if cyclic > 0 {
		return fmt.Errorf("%w in %d of %d algorithm(s)", errCycle, cyclic, len(names))
	}
	return nil
}

// runCertify is the certification gate's report and verdict: write cert to
// the certificate file, summarize it, and succeed only if every cell matches
// its registered expectation.
func runCertify(cert *cdg.Certification, path string, stdout, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := cert.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", path, werr)
	}
	fmt.Fprintf(stdout, "cdg: %d certificates -> %s: %d Dally-Seitz + %d Duato-escape certified, %d known-cyclic, %d skipped\n",
		len(cert.Certificates), path, cert.DallySeitz, cert.DuatoEscape, cert.KnownCyclic, cert.Skipped)
	if !cert.AllOK {
		for _, f := range cert.Failures {
			fmt.Fprintf(stderr, "cdg: FAIL %s\n", f)
		}
		return fmt.Errorf("%w: %d cell(s) contradict their registered expectation", errMismatch, len(cert.Failures))
	}
	return nil
}
