package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPurityFixture: each injected impurity class fires at its WANT-marked
// line, the annotated counter is suppressed, and orphan's unreachable
// clock read stays silent.
func TestPurityFixture(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	checkFixture(t, pkgs, "purity", &Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Run"}}})
}

// TestPurityWitnessChain: the impurity hidden in dep must explain how the
// entry point reaches it.
func TestPurityWitnessChain(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	fs := Run(NewProgram(pkgs), []Pass{&Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Run"}}}})
	found := false
	for _, f := range fs {
		if strings.Contains(f.Msg, "reachable via puritybad.Run → Leak") {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding carries the Run → Leak witness chain; findings: %v", fs)
	}
}

// TestPurityMissingEntry: a misconfigured entry point is a finding, and it
// leaves no verdict in the exemption list.
func TestPurityMissingEntry(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	prog := NewProgram(pkgs)
	pu := &Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Missing"}}}
	fs := only("purity", Run(prog, []Pass{pu}))
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "not found") {
		t.Fatalf("missing entry point findings = %v, want one naming the gap", fs)
	}
	if ex := pu.exemptions(prog); len(ex) != 0 {
		t.Errorf("missing entry point has a verdict: %v", ex)
	}
}

// TestPurityExemptionsFixture: the fixture's entry is impure (it reaches
// unannotated effects), its one exemption is the annotated counter carrying
// its reason, and the unreachable orphan appears nowhere in the walk.
func TestPurityExemptionsFixture(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	prog := NewProgram(pkgs)
	pu := &Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Run"}}}
	ex := pu.exemptions(prog)
	if len(ex) != 1 {
		t.Fatalf("got %d verdicts, want 1: %v", len(ex), ex)
	}
	if e := ex[0]; e.Entry != pkgs[0].Path+".Run" || e.Pure {
		t.Errorf("verdict = %s pure=%v, want %s.Run impure", e.Entry, e.Pure, pkgs[0].Path)
	}
	if len(ex[0].Exemptions) != 1 {
		t.Fatalf("exemptions = %v, want exactly the annotated counter", ex[0].Exemptions)
	}
	if x := ex[0].Exemptions[0]; x.Func != pkgs[0].Path+".Run" || x.Source != "atomic-write" ||
		!strings.Contains(x.Reason, "observe-only counter") {
		t.Errorf("exemption = %+v, want Run's atomic-write carrying the annotation's reason", x)
	}
	reached, _ := pu.walk(prog)
	for _, r := range reached[0].imps {
		if strings.HasSuffix(r.fn, ".orphan") {
			t.Errorf("unreachable orphan reached: %+v", r)
		}
	}
}

// TestPurityCertificatesGolden is the drift gate: on the shipped module the
// purity pass finds nothing, and the exemption list of every entry point —
// whether it is pure, and each annotated effect as (func, source, detail,
// reason), with no line numbers or witness chains, so moved code and new
// helpers do not show — must match the golden byte-for-byte. Regenerate
// with WORMLINT_UPDATE_GOLDEN=1 after an intentional change.
func TestPurityCertificatesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	_, pkgs := loadModule(t)
	prog := NewProgram(pkgs)
	pu := NewPurity()
	for _, f := range Run(prog, []Pass{pu}) {
		t.Errorf("purity run finding: %s", f)
	}
	ex := pu.exemptions(prog)
	for _, e := range ex {
		if !e.Pure {
			t.Errorf("%s is not pure", e.Entry)
		}
		if len(e.Exemptions) == 0 {
			t.Errorf("%s has no exemptions; the profiler counters and routing registry should be on its graph", e.Entry)
		}
	}
	data, err := json.MarshalIndent(ex, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	goldenPath := filepath.Join("testdata", "purity_certificates.golden.json")
	golden, err := os.ReadFile(goldenPath)
	if err != nil && os.Getenv("WORMLINT_UPDATE_GOLDEN") == "" {
		t.Fatalf("read golden (regenerate with WORMLINT_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(data, golden) {
		if os.Getenv("WORMLINT_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Errorf("purity exemptions drifted from the golden; if intentional, regenerate with WORMLINT_UPDATE_GOLDEN=1\n--- got ---\n%s", data)
	}
}
