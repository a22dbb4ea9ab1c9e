package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestHeadBlockedReportIgnoresSamplingPeriod runs a saturated hot-spot point
// with telemetry and forensics attached. Blocked headers are parked and
// charged their blocked cycles when woken; forensics wakes all of them on
// every cycle it samples, so a period of 1 counts each blocked cycle as it
// happens and the default period almost none of them. The report line must
// not tell the two apart.
func TestHeadBlockedReportIgnoresSamplingPeriod(t *testing.T) {
	const label = "head-blocked cycles by routing class"
	report := func(extra ...string) string {
		t.Helper()
		args := append([]string{
			"-k", "8", "-alg", "nbc", "-pattern", "hotspot:0.1:5", "-load", "0.8",
			"-warmup", "300", "-sample", "300", "-maxsamples", "3", "-metrics", "-forensics",
		}, extra...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run: %v\n%s", err, stderr.String())
		}
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(line, label) {
				return line
			}
		}
		t.Fatalf("report has no %q line:\n%s", label, stdout.String())
		return ""
	}
	if lazy, eager := report(), report("-forensics-every", "1"); lazy != eager {
		t.Errorf("head-blocked line depends on the forensics sampling period:\n default: %s\n every 1: %s", lazy, eager)
	}
}

// TestReplicatedStoreNote: -replicas with -store reports the store's hits and
// misses like a single point does, and a second identical pass is served
// entirely from the store.
func TestReplicatedStoreNote(t *testing.T) {
	args := []string{
		"-k", "4", "-alg", "nbc", "-load", "0.3", "-replicas", "3",
		"-warmup", "200", "-sample", "200", "-maxsamples", "2", "-store", t.TempDir(),
	}
	pass := func(want string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run: %v\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	pass("store: hits=0 misses=3")
	pass("store: hits=3 misses=0")
}

// TestBadArguments: usage and configuration mistakes come back from run as
// errors (main turns them into exit status 1) instead of exiting past the
// deferred closes.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "4", "-switching", "bogus"}, "bogus"},
		{[]string{"-config", "/nonexistent/wormsim.json"}, "nonexistent"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
