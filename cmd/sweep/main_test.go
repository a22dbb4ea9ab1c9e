package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestStoreSmoke replays CI's store-smoke job in process: the same tiny sweep
// twice against one -store directory. The cold pass simulates every point,
// the warm pass answers every point from the store, and the CSV is
// byte-identical.
func TestStoreSmoke(t *testing.T) {
	args := []string{
		"-algs", "nbc,ecube", "-loads", "0.2:0.4:0.1",
		"-k", "8", "-warmup", "500", "-sample", "300", "-maxsamples", "3",
		"-store", t.TempDir(),
	}
	pass := func(wantStore string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run: %v\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), wantStore) {
			t.Errorf("stderr lacks %q:\n%s", wantStore, stderr.String())
		}
		return stdout.String()
	}
	cold := pass("store: hits=0 misses=6")
	warm := pass("store: hits=6 misses=0")
	if cold != warm {
		t.Errorf("warm CSV differs from cold:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if got := strings.Count(cold, "\n"); got != 7 {
		t.Errorf("CSV has %d lines, want a header and 6 points:\n%s", got, cold)
	}
}

// TestReplicatedProgress: with -replicas the progress bar counts algorithms,
// steps once per algorithm and finishes.
func TestReplicatedProgress(t *testing.T) {
	args := []string{
		"-algs", "nbc,ecube", "-replicas", "2", "-progress", "-loads", "0.2",
		"-k", "4", "-warmup", "200", "-sample", "200", "-maxsamples", "2",
	}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{"[2/2]", "done in"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestBadArguments: usage mistakes come back from run as errors (main turns
// them into exit status 1) instead of exiting past the deferred closes.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-format", "bogus", "-loads", "0.2", "-k", "4"}, `unknown format "bogus"`},
		{[]string{"-loads", "0.2:oops:0.1"}, "oops"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
