package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"wormsim/internal/lint"
)

// TestList: -list names every default pass, one per line, and exits 0.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run(-list) = %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	passes := lint.DefaultPasses()
	if len(lines) != len(passes) {
		t.Errorf("-list printed %d passes, want %d:\n%s", len(lines), len(passes), stdout.String())
	}
	for i, p := range passes {
		if i < len(lines) && !strings.HasPrefix(lines[i], p.Name()+" ") {
			t.Errorf("-list line %d is %q, want pass %s", i, lines[i], p.Name())
		}
	}
}

// TestUsageExitsTwo: usage mistakes exit 2, the status findings never use,
// before anything is loaded; -h exits 0.
func TestUsageExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-passes", "bogus"}, 2},
		{[]string{"-nope"}, 2},
		{[]string{"-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if got := exitCode(err); got != tc.code {
			t.Errorf("run(%v) = %v: exit %d, want %d", tc.args, err, got, tc.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout:\n%s", tc.args, stdout.String())
		}
	}
}

// TestFindingsExitOne: a completed check with findings prints each one on
// its own line and exits 1, which CI tells apart from a load failure's 2.
// The hookguard fixture holds one finding per WANT marker.
func TestFindingsExitOne(t *testing.T) {
	const fixture = "../../internal/lint/testdata/src/hookbad"
	src, err := os.ReadFile(fixture + "/hookbad.go")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, l := range strings.Split(string(src), "\n") {
		if strings.HasSuffix(l, "// WANT hookguard") {
			want++
		}
	}
	var stdout, stderr bytes.Buffer
	err = run([]string{fixture}, &stdout, &stderr)
	if got := exitCode(err); got != 1 {
		t.Errorf("run = %v: exit %d, want 1\n%s", err, got, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != want {
		t.Errorf("want %d [hookguard] findings, got:\n%s", want, stdout.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "[hookguard]") {
			t.Errorf("finding %q is not a [hookguard] one", l)
		}
	}
}
