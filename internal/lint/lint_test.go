package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func position(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}

// The test process type-checks the standard library and each package it
// touches once: every test draws on one Loader (it memoizes by import path),
// and a loaded Package is read-only. What a run mutates — which directives
// it exercised, the call graph — lives in the Program, which every test
// builds for itself.
var (
	sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })
	sharedModule = sync.OnceValues(func() ([]*Package, error) {
		l, err := sharedLoader()
		if err != nil {
			return nil, err
		}
		return l.Load(l.ModRoot + "/...")
	})
)

// loadModule type-checks the whole module, once, for the tests that hold the
// shipped tree to the suite.
func loadModule(t testing.TB) (*Loader, []*Package) {
	t.Helper()
	pkgs, err := sharedModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Load matched no packages")
	}
	l, _ := sharedLoader()
	return l, pkgs
}

// loadFixtures type-checks fixture packages under testdata/src; they share
// the loader's type identities, as cross-package call-graph tests need.
// Fixtures live below testdata so the module build and the recursive
// wormlint walk both skip them.
func loadFixtures(t *testing.T, names ...string) []*Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	var pkgs []*Package
	for _, name := range names {
		p, err := l.LoadDir(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", name, err)
		}
		if p == nil {
			t.Fatalf("fixture %s has no Go files", name)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	return loadFixtures(t, name)[0]
}

// wantLines scans every fixture file for trailing "// WANT <pass>" markers,
// keyed "basename:line" so multi-package fixtures cannot collide. Only
// end-of-line markers count, so a fixture header can mention the marker
// syntax in prose.
func wantLines(t *testing.T, pkgs []*Package, pass string) map[string]bool {
	t.Helper()
	want := make(map[string]bool)
	marker := "// WANT " + pass
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("read fixture source: %v", err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if strings.HasSuffix(strings.TrimRight(line, " \t"), marker) {
					want[filepath.Base(name)+":"+strconv.Itoa(i+1)] = true
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture for %s has no WANT markers", pass)
	}
	return want
}

// checkFixture runs the passes over the fixture packages (through Run, so
// //lint:allow suppression and the stale-directive rule apply exactly as in
// wormlint) and requires the file:line set reported under name to equal the
// WANT-marked set, and nothing else to be reported.
func checkFixture(t *testing.T, pkgs []*Package, name string, passes ...Pass) {
	t.Helper()
	want := wantLines(t, pkgs, name)
	got := make(map[string]bool)
	for _, f := range Run(NewProgram(pkgs), passes) {
		if f.Pass != name {
			t.Errorf("unexpected %s finding: %s", f.Pass, f)
			continue
		}
		got[filepath.Base(f.Pos.Filename)+":"+strconv.Itoa(f.Pos.Line)] = true
	}
	for key := range want {
		if !got[key] {
			t.Errorf("no %s finding at %s, want one", name, key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected %s finding at %s", name, key)
		}
	}
}

// only keeps pass's findings, dropping the stale-directive findings a run
// over a fixture outside the pass's scope also produces.
func only(pass string, fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Pass == pass {
			out = append(out, f)
		}
	}
	return out
}

func TestSimDeterminismFixture(t *testing.T) {
	pkgs := loadFixtures(t, "simdet")
	// The fixture is outside the simulation core, so target it explicitly.
	checkFixture(t, pkgs, "simdeterminism", &SimDeterminism{Targets: []string{pkgs[0].Path}})
}

func TestSimDeterminismIgnoresUntargetedPackages(t *testing.T) {
	p := loadFixture(t, "simdet")
	if got := only("simdeterminism", Run(NewProgram([]*Package{p}), []Pass{NewSimDeterminism()})); len(got) != 0 {
		t.Errorf("default targets flagged fixture package %s: %v", p.Path, got)
	}
}

func TestHotAllocFixture(t *testing.T) {
	pkgs := loadFixtures(t, "hotallocbad")
	// The fixture lives outside the engine package, so target it explicitly.
	checkFixture(t, pkgs, "hotalloc", &HotAlloc{TargetPkg: pkgs[0].Path, Root: "(*Engine).Step"})
}

func TestHotAllocIgnoresUntargetedPackages(t *testing.T) {
	p := loadFixture(t, "hotallocbad")
	if got := only("hotalloc", Run(NewProgram([]*Package{p}), []Pass{NewHotAlloc()})); len(got) != 0 {
		t.Errorf("default target flagged fixture package %s: %v", p.Path, got)
	}
}

// TestHotAllocMissingRoot: renaming the entry point must surface as a
// finding, not silently disarm the gate.
func TestHotAllocMissingRoot(t *testing.T) {
	p := loadFixture(t, "hotallocbad")
	got := only("hotalloc", Run(NewProgram([]*Package{p}), []Pass{&HotAlloc{TargetPkg: p.Path, Root: "(*Engine).Tick"}}))
	if len(got) != 1 || !strings.Contains(got[0].Msg, "root (*Engine).Tick not found") {
		t.Errorf("missing root reported as %v, want one configuration finding", got)
	}
}

func TestHookGuardFixture(t *testing.T) {
	checkFixture(t, loadFixtures(t, "hookbad"), "hookguard", NewHookGuard())
}

func TestErrFmtFixture(t *testing.T) {
	checkFixture(t, loadFixtures(t, "errbad"), "errfmt", ErrFmt{})
}

// TestRepoClean is the in-process equivalent of `go run ./cmd/wormlint
// ./...`: the shipped tree must be finding-free, so that any new violation
// fails the ordinary test suite too.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	_, pkgs := loadModule(t)
	for _, f := range Run(NewProgram(pkgs), DefaultPasses()) {
		t.Errorf("repo finding: %s", f)
	}
}

func TestFindingString(t *testing.T) {
	p := loadFixture(t, "errbad")
	fs := Run(NewProgram([]*Package{p}), []Pass{ErrFmt{}})
	if len(fs) == 0 {
		t.Fatal("no findings to format")
	}
	s := fs[0].String()
	if !strings.Contains(s, "errbad.go:") || !strings.Contains(s, "[errfmt]") {
		t.Errorf("String() = %q, want file:line: [errfmt] message form", s)
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
		ok     bool
	}{
		{"plain", "", true},
		{"%s: %w", "sw", true},
		{"%d%%%v", "dv", true},
		{"%+8.3f %q", "fq", true},
		{"pad %*d: %w", "*dw", true},
		{"%[1]s", "", false},
	}
	for _, c := range cases {
		vs, ok := formatVerbs(c.format)
		if ok != c.ok || string(vs) != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, vs, ok, c.verbs, c.ok)
		}
	}
}

func TestAllowDirectiveScope(t *testing.T) {
	p := loadFixture(t, "simdet")
	var file string
	for _, f := range p.Files {
		file = p.Fset.Position(f.Pos()).Filename
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var sameLine, lineAbove int
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "//lint:allow simdeterminism (collected then sorted)") {
			sameLine = i + 1
		}
		if strings.Contains(line, "//lint:allow simdeterminism (order-independent sum)") {
			lineAbove = i + 1
		}
	}
	if sameLine == 0 || lineAbove == 0 {
		t.Fatal("fixture directives not found")
	}
	pos := func(line int) bool {
		return p.Allowed("simdeterminism", position(file, line))
	}
	if !pos(sameLine) {
		t.Errorf("directive does not cover its own line %d", sameLine)
	}
	if !pos(lineAbove + 1) {
		t.Errorf("whole-line directive does not cover the line below %d", lineAbove)
	}
	if pos(sameLine) && p.Allowed("errfmt", position(file, sameLine)) {
		t.Error("directive for simdeterminism leaked to errfmt")
	}
}
