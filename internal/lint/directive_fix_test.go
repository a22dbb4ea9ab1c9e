package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDirectiveSurvivesFix: applying -fix to a file that mixes fixable
// findings with //lint:allow directives — one on the suppressed line, one in
// a doc comment — must rewrite only the unsuppressed findings and leave both
// directives byte-for-byte intact
// (the directivefixfixed fixture is the golden).
func TestDirectiveSurvivesFix(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", "directivefix"))
	if err != nil {
		t.Fatalf("LoadDir(directivefix): %v", err)
	}
	findings := Run([]*Package{p}, []Pass{ErrFmt{}})
	if len(findings) != 2 {
		t.Fatalf("directivefix produced %d findings, want 2 (the allow-suppressed line must not fix)", len(findings))
	}
	patched, err := ApplyFixes(l.Fset, findings)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if len(patched) != 1 {
		t.Fatalf("ApplyFixes touched %d files, want 1", len(patched))
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "src", "directivefixfixed", "directivefix.go"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	for _, got := range patched {
		if !bytes.Equal(got, golden) {
			t.Errorf("fixed output does not match the directivefixfixed golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
		}
		for _, directive := range []string{
			"//lint:allow errfmt kept verbatim for a downstream parser",
			"//lint:allow purity fixture exemption that must survive -fix",
		} {
			if !bytes.Contains(got, []byte(directive)) {
				t.Errorf("fix dropped the directive %q", directive)
			}
		}
	}

	// The golden still suppresses: re-running on the fixed fixture finds
	// nothing (the %v under //lint:allow is still there, still suppressed).
	fixed, err := l.LoadDir(filepath.Join("testdata", "src", "directivefixfixed"))
	if err != nil {
		t.Fatalf("LoadDir(directivefixfixed): %v", err)
	}
	if fs := Run([]*Package{fixed}, []Pass{ErrFmt{}}); len(fs) != 0 {
		t.Errorf("directivefixfixed still has findings: %v", fs)
	}
}

// TestDirectiveBaselineInteraction: a baseline adopts only the findings the
// directives let through — suppressed lines never enter it — and filtering
// against that baseline silences exactly the adopted findings.
func TestDirectiveBaselineInteraction(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", "directivefix"))
	if err != nil {
		t.Fatalf("LoadDir(directivefix): %v", err)
	}
	findings := Run([]*Package{p}, []Pass{ErrFmt{}})
	if len(findings) != 2 {
		t.Fatalf("directivefix produced %d findings, want 2", len(findings))
	}
	var buf bytes.Buffer
	if err := WriteBaseline(&buf, findings, l.ModRoot); err != nil {
		t.Fatalf("WriteBaseline: %v", err)
	}
	if strings.Contains(buf.String(), "legacy format") {
		t.Error("baseline adopted the //lint:allow-suppressed finding; directives must filter before baselining")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := ReadBaseline(path)
	if err != nil {
		t.Fatalf("ReadBaseline: %v", err)
	}
	kept, suppressed := FilterBaseline(findings, base, l.ModRoot)
	if len(kept) != 0 || suppressed != 2 {
		t.Errorf("FilterBaseline kept %d findings and suppressed %d, want 0 kept and 2 suppressed", len(kept), suppressed)
	}
}
