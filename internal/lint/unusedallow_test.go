package lint

import (
	"strings"
	"testing"
)

// TestUnusedAllowFixture: judged against a pass with live suppressions
// (errfmt) and one that never fires there (hookguard), directives that
// suppress nothing are lintdirective findings at their WANT-marked lines;
// the control directive with a live suppression is not.
func TestUnusedAllowFixture(t *testing.T) {
	checkFixture(t, loadFixtures(t, "unusedallowbad"), "lintdirective", ErrFmt{}, NewHookGuard())
}

// TestUnusedAllowSkipsNotRun: a directive for a pass that did not run this
// invocation cannot be judged stale — only the hookguard half of the
// multi-pass directive is provably dead when errfmt is deselected.
func TestUnusedAllowSkipsNotRun(t *testing.T) {
	pkgs := loadFixtures(t, "unusedallowbad")
	fs := Run(NewProgram(pkgs), []Pass{NewHookGuard()})
	if len(fs) != 1 {
		t.Fatalf("got %d findings with errfmt deselected, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "//lint:allow hookguard") {
		t.Errorf("finding does not single out the hookguard half: %s", fs[0])
	}
}
