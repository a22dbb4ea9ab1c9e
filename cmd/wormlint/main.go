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
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"wormsim/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the passes and exit")
	passesFlag := flag.String("passes", "", "comma-separated pass names to run (default: all)")
	certifyPurity := flag.String("certify-purity", "", "write purity certificates for the run entry points to this file and gate on violations")
	flag.Parse()

	passes := lint.DefaultPasses()
	if *passesFlag != "" {
		var err error
		passes, err = lint.SelectPasses(*passesFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wormlint: %v\n", err)
			os.Exit(2)
		}
	}

	if *list {
		for _, p := range passes {
			fmt.Printf("%-18s %s\n", p.Name(), p.Doc())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "wormlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wormlint: %v\n", err)
		os.Exit(2)
	}

	// One Program serves the findings and the certification.
	prog := lint.NewProgram(pkgs)
	findings := lint.RunOn(prog, passes)

	exit := 0
	if *certifyPurity != "" {
		if certifyPurityRun(prog, loader.ModRoot, *certifyPurity) {
			exit = 1
		}
	}

	for _, f := range findings {
		fmt.Printf("%s:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Pass, f.Msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "wormlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		exit = 1
	}
	os.Exit(exit)
}

// certifyPurityRun runs the purity certification (see lint.CertifyPurity)
// against the shared Program and writes the certificate set to path. It
// reports whether any certificate carries violations; certification
// machinery failures exit 2 directly.
func certifyPurityRun(prog *lint.Program, modRoot, path string) bool {
	certs, err := lint.CertifyPurity(prog, lint.NewPurity(), modRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wormlint: -certify-purity: %v\n", err)
		os.Exit(2)
	}
	data, err := json.MarshalIndent(certs, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wormlint: -certify-purity: %v\n", err)
		os.Exit(2)
	}
	violations := 0
	for _, cert := range certs.Entries {
		status := "PURE"
		if !cert.Pure {
			status = "IMPURE"
			violations += len(cert.Violations)
		}
		fmt.Fprintf(os.Stderr, "wormlint: purity: %-42s %-6s (%d reachable, %d exemption(s), %d violation(s))\n",
			cert.Entry, status, cert.ReachableFunctions, len(cert.Exemptions), len(cert.Violations))
		for _, v := range cert.Violations {
			fmt.Printf("%s:%d: [purity] %s (via %s)\n", v.File, v.Line, v.Detail, v.Witness)
		}
	}
	fmt.Fprintf(os.Stderr, "wormlint: purity certificates written to %s (%s)\n", relPath(path), certs.Signature)
	return violations > 0
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
