package lint

import (
	"strings"
	"testing"
)

// TestUnusedAllowFixture: judged against a pass with a live suppression
// (hookguard) and one that never fires there (simdeterminism), directives
// that suppress nothing are lintdirective findings at their WANT-marked
// lines; the control directive with a live suppression is not.
func TestUnusedAllowFixture(t *testing.T) {
	checkFixture(t, loadFixtures(t, "unusedallowbad"), "lintdirective", NewHookGuard(), NewSimDeterminism())
}

// TestUnusedAllowSkipsNotRun: a directive for a pass that did not run this
// invocation cannot be judged stale — only the simdeterminism half of the
// multi-pass directive is provably dead when hookguard is deselected.
func TestUnusedAllowSkipsNotRun(t *testing.T) {
	pkgs := loadFixtures(t, "unusedallowbad")
	fs := Run(NewProgram(pkgs), []Pass{NewSimDeterminism()})
	if len(fs) != 1 {
		t.Fatalf("got %d findings with hookguard deselected, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Msg, "//lint:allow simdeterminism") {
		t.Errorf("finding does not single out the simdeterminism half: %s", fs[0])
	}
}
