package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: an acyclic algorithm exits 0, a cyclic one exits 2 and prints its
// witness under -witness, and a usage mistake exits 1. -certify is left to
// the cdg package's golden test, which runs the full matrix.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		code       int
		wantStdout string
		wantStderr string
	}{
		{[]string{"-alg", "ecube", "-k", "4"}, 0, "ACYCLIC", ""},
		{[]string{"-alg", "2pnsrc", "-witness"}, 2, " -> ", ""},
		{[]string{"-alg", "bogus"}, 1, "", ""},
		{[]string{"-nope"}, 1, "", "-nope"},
		{[]string{"-h"}, 0, "", "-witness"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if got := exitCode(err); got != tc.code {
			t.Errorf("run(%v) = %v: exit %d, want %d", tc.args, err, got, tc.code)
		}
		if !strings.Contains(stdout.String(), tc.wantStdout) {
			t.Errorf("run(%v) stdout lacks %q:\n%s", tc.args, tc.wantStdout, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("run(%v) stderr lacks %q:\n%s", tc.args, tc.wantStderr, stderr.String())
		}
	}
}
