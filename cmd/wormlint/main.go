// Command wormlint runs wormsim's domain-specific static-analysis suite
// (see internal/lint), seven passes: determinism of the simulation core
// (simdeterminism), purity of the run entry points (purity), zero-alloc
// discipline on the engine's whole-program per-cycle call graph (hotalloc),
// nil-guarded observability hooks (hookguard), error-message conventions
// (errfmt), and the two that keep //lint:allow directives honest
// (lintdirective, unusedallow).
//
//	wormlint ./...                      # whole repo (the CI gate)
//	wormlint ./internal/core            # one package
//	wormlint -list                      # describe the passes
//	wormlint -passes errfmt,hotalloc    # run a subset
//	wormlint -certify-purity certs.json # purity certificates for the run
//	                                    # entry points
//
// The module is loaded and type-checked exactly once per invocation: the
// lint passes and the certification share one lint.Program.
//
// Findings print as "file:line: [pass] message". Exit status: 0 clean,
// 1 findings, 2 usage or load/type-check failure. Intentional uses are
// annotated in the source with `//lint:allow <pass>[,<pass>...] reason`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wormsim/internal/lint"
)

// errFindings marks a completed check that found something — lint findings
// or an impure certificate — so the process exits 1; every other failure
// (usage, load or type-check, unwritable certificates) exits 2.
var errFindings = errors.New("check failed")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wormlint: %v\n", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's error to the process status: 0 clean, 1 findings,
// 2 anything else.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errFindings):
		return 1
	}
	return 2
}

// run is the whole command; main turns its error into the exit status.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wormlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the passes and exit")
	passesFlag := fs.String("passes", "", "comma-separated pass names to run (default: all)")
	certifyPurity := fs.String("certify-purity", "", "write purity certificates for the run entry points to this file and gate on violations")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	passes := lint.DefaultPasses()
	if *passesFlag != "" {
		var err error
		if passes, err = lint.SelectPasses(*passesFlag); err != nil {
			return err
		}
	}

	if *list {
		for _, p := range passes {
			fmt.Fprintf(stdout, "%-18s %s\n", p.Name(), p.Doc())
		}
		return nil
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		return err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return err
	}

	// One Program serves the findings and the certification.
	prog := lint.NewProgram(pkgs)
	findings := lint.RunOn(prog, passes)

	violations := 0
	if *certifyPurity != "" {
		if violations, err = certifyPurityRun(prog, loader.ModRoot, *certifyPurity, stdout, stderr); err != nil {
			return fmt.Errorf("-certify-purity: %w", err)
		}
	}

	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Pass, f.Msg)
	}
	if len(findings) > 0 || violations > 0 {
		return fmt.Errorf("%w: %d finding(s) in %d package(s), %d purity violation(s)", errFindings, len(findings), len(pkgs), violations)
	}
	return nil
}

// certifyPurityRun runs the purity certification (see lint.CertifyPurity)
// against the shared Program, writes the certificate set to path and
// returns how many violations the certificates carry.
func certifyPurityRun(prog *lint.Program, modRoot, path string, stdout, stderr io.Writer) (int, error) {
	certs, err := lint.CertifyPurity(prog, lint.NewPurity(), modRoot)
	if err != nil {
		return 0, err
	}
	data, err := json.MarshalIndent(certs, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	violations := 0
	for _, cert := range certs.Entries {
		status := "PURE"
		if !cert.Pure {
			status = "IMPURE"
			violations += len(cert.Violations)
		}
		fmt.Fprintf(stderr, "wormlint: purity: %-42s %-6s (%d reachable, %d exemption(s), %d violation(s))\n",
			cert.Entry, status, cert.ReachableFunctions, len(cert.Exemptions), len(cert.Violations))
		for _, v := range cert.Violations {
			fmt.Fprintf(stdout, "%s:%d: [purity] %s (via %s)\n", v.File, v.Line, v.Detail, v.Witness)
		}
	}
	fmt.Fprintf(stderr, "wormlint: purity certificates written to %s (%s)\n", relPath(path), certs.Signature)
	return violations, nil
}

// relPath renders name relative to the working directory when it is inside.
func relPath(name string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return name
}
