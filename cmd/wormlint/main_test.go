package main

import (
	"bytes"
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
	if len(lines) != 5 {
		t.Errorf("-list printed %d passes, want 5:\n%s", len(lines), stdout.String())
	}
	for i, p := range lint.DefaultPasses() {
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
