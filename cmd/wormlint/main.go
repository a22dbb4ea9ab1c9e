// Command wormlint runs wormsim's domain-specific static-analysis suite
// (see internal/lint): determinism of the simulation core, zero-alloc
// discipline on the engine's whole-program per-cycle call graph, atomic and
// mutex discipline, hook-escape copying, nil-guarded telemetry hooks,
// lock-copy and loop-capture hazards, resource-conservation ledgers, and
// error-message conventions.
//
//	wormlint ./...                      # whole repo (the CI gate)
//	wormlint ./internal/core            # one package
//	wormlint -list                      # describe the passes
//	wormlint -passes errfmt,lockscope   # run a subset
//	wormlint -fix ./...                 # apply suggested fixes in place
//	wormlint -json ./...                # findings as a JSON array
//	wormlint -sarif out.sarif ./...     # SARIF 2.1.0 for code scanning
//	wormlint -writebaseline lint.txt    # accept today's findings as debt
//	wormlint -baseline lint.txt ./...   # gate only on new findings
//	wormlint -certify-purity certs.json # purity certificates for the run
//	                                    # entry points (CI pins a golden)
//
// The module is loaded and type-checked exactly once per invocation: the
// lint passes and the certification share one lint.Program, so combining
// them costs one load, not two.
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
	"sort"

	"wormsim/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the passes and exit")
	passesFlag := flag.String("passes", "", "comma-separated pass names to run (default: all)")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array instead of text")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	baselinePath := flag.String("baseline", "", "suppress findings listed in this baseline file")
	writeBaseline := flag.String("writebaseline", "", "write current findings to this baseline file and exit 0")
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

	// One Program serves findings and every certification below.
	prog := lint.NewProgram(pkgs)
	findings := lint.RunOn(prog, passes)

	if *fix {
		patched, err := lint.ApplyFixes(loader.Fset, findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wormlint: -fix: %v\n", err)
			os.Exit(2)
		}
		var names []string
		for name := range patched {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := os.WriteFile(name, patched[name], 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "wormlint: -fix: %v\n", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "wormlint: fixed %s\n", relPath(name))
		}
		// Report what -fix could not resolve: reload and re-run so line
		// numbers match the patched sources.
		if len(names) > 0 {
			loader, err = lint.NewLoader(".")
			if err == nil {
				pkgs, err = loader.Load(patterns...)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "wormlint: reload after -fix: %v\n", err)
				os.Exit(2)
			}
			prog = lint.NewProgram(pkgs)
			findings = lint.RunOn(prog, passes)
		}
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err == nil {
			err = lint.WriteBaseline(f, findings, loader.ModRoot)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wormlint: -writebaseline: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wormlint: wrote %d finding(s) to %s\n", len(findings), *writeBaseline)
		return
	}

	if *baselinePath != "" {
		base, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wormlint: -baseline: %v\n", err)
			os.Exit(2)
		}
		var suppressed int
		findings, suppressed = lint.FilterBaseline(findings, base, loader.ModRoot)
		if suppressed > 0 {
			fmt.Fprintf(os.Stderr, "wormlint: %d baselined finding(s) suppressed\n", suppressed)
		}
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err == nil {
			err = lint.WriteSARIF(f, findings, passes, loader.ModRoot)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wormlint: -sarif: %v\n", err)
			os.Exit(2)
		}
	}

	exit := 0
	if *certifyPurity != "" {
		if certifyPurityRun(prog, loader.ModRoot, *certifyPurity) {
			exit = 1
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonFindings(findings)); err != nil {
			fmt.Fprintf(os.Stderr, "wormlint: -json: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Pass, f.Msg)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "wormlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		exit = 1
	}
	os.Exit(exit)
}

// jsonFinding is the -json output shape: one object per finding, with the
// position split into machine-consumable fields.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
	Fixable bool   `json:"fixable"`
}

func jsonFindings(findings []lint.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:    relPath(f.Pos.Filename),
			Line:    f.Pos.Line,
			Column:  f.Pos.Column,
			Pass:    f.Pass,
			Message: f.Msg,
			Fixable: f.Fix != nil,
		})
	}
	return out
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
