package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestArguments: usage mistakes come back from run as errors (main turns
// them into exit status 1) before any figure is simulated, and -h prints the
// flags and succeeds.
func TestArguments(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		wantErr    string // "" for success
		wantStderr string
	}{
		{[]string{"-fig", "bogus"}, `unknown figure "bogus"`, ""},
		{[]string{"-nope"}, "-nope", "-nope"},
		{[]string{"-fig", "vct", "-quick", "-csv", "-md"}, "at most one", ""},
		{[]string{"-h"}, "", "-fig"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("run(%v) = %v, want success", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.wantErr)
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("run(%v) stderr lacks %q:\n%s", tc.args, tc.wantStderr, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout:\n%s", tc.args, stdout.String())
		}
	}
}
