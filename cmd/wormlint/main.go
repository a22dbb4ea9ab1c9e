// Command wormlint runs wormsim's domain-specific static-analysis suite
// (see internal/lint), three passes: determinism of the simulation core
// (simdeterminism), purity of the run entry points (purity) and
// nil-guarded observability hooks (hookguard). A //lint:allow directive
// that names no pass, or suppresses nothing, is a [lintdirective] finding.
//
//	wormlint ./...              # whole repo (the CI gate)
//	wormlint ./internal/core    # one package
//	wormlint -list              # describe the passes
//
// The module is loaded and type-checked exactly once per invocation, and
// every pass shares one lint.Program.
//
// Findings print as "file:line: [pass] message". Exit status: 0 clean,
// 1 findings, 2 usage or load/type-check failure. Intentional uses are
// annotated in the source with `//lint:allow <pass>[,<pass>...] reason`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wormsim/internal/lint"
)

// errFindings marks a completed check that found something, so the process
// exits 1; every other failure (usage, load or type-check) exits 2.
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
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	passes := lint.DefaultPasses()
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

	findings := lint.Run(lint.NewProgram(pkgs), passes)
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Pass, f.Msg)
	}
	if len(findings) > 0 {
		return fmt.Errorf("%w: %d finding(s) in %d package(s)", errFindings, len(findings), len(pkgs))
	}
	return nil
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
