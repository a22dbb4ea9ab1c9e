package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestCrossPackageHotAlloc: allocations behind a cross-package call, a
// devirtualized interface call, and a stored function value must all be
// reached from the root in the sibling package.
func TestCrossPackageHotAlloc(t *testing.T) {
	pkgs := loadFixtures(t, "xleak", "xleak/dep")
	checkFixture(t, pkgs, "hotalloc", &HotAlloc{TargetPkg: pkgs[0].Path, Root: "(*Engine).Step"})
}

// TestCrossPackageSimDeterminism: the reachability scope must catch a
// wall-clock read in an untargeted package the engine reaches.
func TestCrossPackageSimDeterminism(t *testing.T) {
	pkgs := loadFixtures(t, "xleak", "xleak/dep")
	checkFixture(t, pkgs, "simdeterminism", &SimDeterminism{Roots: []FuncRef{{Pkg: pkgs[0].Path, Func: "(*Engine).Step"}}})
}

// TestWitnessChain: cross-package findings must explain how the engine
// reaches the flagged line.
func TestWitnessChain(t *testing.T) {
	pkgs := loadFixtures(t, "xleak", "xleak/dep")
	fs := Run(NewProgram(pkgs), []Pass{&HotAlloc{TargetPkg: pkgs[0].Path, Root: "(*Engine).Step"}})
	// Chains qualify names relative to the reported file's package: the
	// root prints as xleak.(*Engine).Step, dep's own members unqualified.
	var mixChain, routeChain bool
	for _, f := range fs {
		if strings.Contains(f.Msg, "xleak.(*Engine).Step → Mix") {
			mixChain = true
		}
		if strings.Contains(f.Msg, "xleak.(*Engine).Step → (Greedy).Route") {
			routeChain = true
		}
	}
	if !mixChain {
		t.Errorf("no finding carries the Step → Mix witness chain; findings: %v", fs)
	}
	if !routeChain {
		t.Errorf("no finding carries the devirtualized Step → (Greedy).Route chain; findings: %v", fs)
	}
}

// TestStoreCacheSimDeterminism: the run-store guard-rail. Wall-clock reads
// in a store's Lookup/Put must be flagged when a Sweep-like root consults
// the store on its cache-hit branch, while maintenance code the sweep never
// reaches stays legal. This is the fixture backing the production claim
// that warm-store reruns are bit-identical: the cache-hit path cannot
// observe the clock.
func TestStoreCacheSimDeterminism(t *testing.T) {
	pkgs := loadFixtures(t, "storecache", "storecache/store")
	checkFixture(t, pkgs, "simdeterminism", &SimDeterminism{Roots: []FuncRef{{Pkg: pkgs[0].Path, Func: "Sweep"}}})
}

// TestAllowMultiPass: one //lint:allow simdeterminism,hotalloc directive must
// suppress both passes on its line, and only there.
func TestAllowMultiPass(t *testing.T) {
	pkgs := loadFixtures(t, "allowmulti")
	p := pkgs[0]
	passes := []Pass{
		&SimDeterminism{Targets: []string{p.Path}},
		&HotAlloc{TargetPkg: p.Path, Root: "Step"},
	}
	byPass := make(map[string]int)
	for _, f := range Run(NewProgram(pkgs), passes) {
		if f.Pass == "lintdirective" {
			continue // the nosuchpass directive; see TestLintDirectiveUnknownPass
		}
		byPass[f.Pass]++
		if !strings.Contains(fileLine(t, f), "both passes must still fire here") {
			t.Errorf("finding on unexpected line: %s", f)
		}
	}
	if byPass["simdeterminism"] != 1 || byPass["hotalloc"] != 1 {
		t.Errorf("control line findings = %v, want one per pass", byPass)
	}
}

// fileLine reads the source line a finding points at.
func fileLine(t *testing.T, f Finding) string {
	t.Helper()
	data, err := os.ReadFile(f.Pos.Filename)
	if err != nil {
		t.Fatalf("read %s: %v", f.Pos.Filename, err)
	}
	lines := strings.Split(string(data), "\n")
	if f.Pos.Line < 1 || f.Pos.Line > len(lines) {
		t.Fatalf("finding line %d out of range", f.Pos.Line)
	}
	return lines[f.Pos.Line-1]
}

// TestLintDirectiveUnknownPass: a directive naming an unregistered pass is
// itself a finding, whether or not any pass runs — a typo, or a pass the
// suite no longer has, whose stale directives must not linger looking like
// documented exemptions.
func TestLintDirectiveUnknownPass(t *testing.T) {
	pkgs := loadFixtures(t, "allowmulti")
	fs := Run(NewProgram(pkgs), nil)
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(fs), fs)
	}
	if fs[0].Pass != "lintdirective" || !strings.Contains(fs[0].Msg, "nosuchpass") {
		t.Errorf("finding does not name the unknown pass: %s", fs[0])
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "old.go",
		"package old\n\nvar X = 1 //lint:allow hotalloc,lockscope (held across the send on purpose)\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	old := &Package{Path: "old", Fset: fset, Files: []*ast.File{f}}
	old.allow, old.directives = collectAllows(fset, old.Files)
	fs = Run(NewProgram([]*Package{old}), nil)
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, `unknown pass "lockscope"`) {
		t.Errorf("directive for a deleted pass reported as %v, want one unknown-pass finding", fs)
	}
}

// TestPassNamesUnique pins the registry: the five passes, in reporting
// order, each name once (a duplicate would make directives ambiguous).
func TestPassNamesUnique(t *testing.T) {
	want := []string{"simdeterminism", "purity", "hotalloc", "hookguard", "errfmt"}
	var got []string
	for _, p := range DefaultPasses() {
		got = append(got, p.Name())
	}
	if !slices.Equal(got, want) {
		t.Errorf("DefaultPasses() names = %v, want %v", got, want)
	}
}
