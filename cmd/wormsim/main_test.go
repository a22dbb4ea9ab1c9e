package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wormsim/internal/core"
	"wormsim/internal/runstore"
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
// deferred closes. They are refused before anything runs: a trace format
// no writer knows must not leave an empty trace file behind.
func TestBadArguments(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "T")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-k", "4", "-switching", "bogus"}, "bogus"},
		{[]string{"-k", "4", "-switching", "saf"}, `"saf" (want wormhole or vct)`},
		{[]string{"-config", "/nonexistent/wormsim.json"}, "nonexistent"},
		{[]string{"-format", "bogus", "-load", "0.2", "-k", "4"}, `unknown format "bogus"`},
		{[]string{"-load", "0.2:oops:0.1"}, "oops"},
		{[]string{"-load", "0.2,0.3", "-rate", "0.01"}, "-rate"},
		{[]string{"-replicas", "2", "-metrics"}, "-metrics is not supported with -replicas"},
		{[]string{"-alg", "nbc,ecube", "-v"}, "-v is not supported with a grid"},
		{[]string{"-k", "65537", "-n", "2"}, "more than 65536 nodes"},
		{[]string{"-k", "4", "-alg", "nbc", "-load", "0.2", "-warmup", "100", "-sample", "100", "-maxsamples", "1",
			"-trace", trace, "-traceformat", "xml"}, `unknown trace format "xml"`},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("run(%v) printed a report before refusing:\n%s", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat(trace); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("refused -traceformat left %s behind (stat: %v)", trace, err)
	}
}

// TestStoreSmoke replays CI's store-smoke job in process: the same tiny grid
// twice against one -store directory, then a -replicas grid of an
// instrumented config twice against another. The cold pass simulates every
// point, the warm pass answers every point from the store, and the CSV is
// byte-identical.
func TestStoreSmoke(t *testing.T) {
	tel := filepath.Join(t.TempDir(), "tel.json")
	if err := os.WriteFile(tel, []byte(`{"Telemetry":{"Metrics":true}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Each grid is six points: six (algorithm, load) pairs, or two loads at
	// three seeds.
	for _, tc := range []struct {
		args  []string
		lines int
	}{
		{[]string{"-alg", "nbc,ecube", "-load", "0.2:0.4:0.1"}, 7},
		{[]string{"-config", tel, "-alg", "nbc", "-load", "0.2,0.3", "-replicas", "3", "-format", "csv"}, 3},
	} {
		args := append(tc.args, "-k", "8", "-warmup", "500", "-sample", "300", "-maxsamples", "3", "-store", t.TempDir())
		pass := func(wantStore string) string {
			t.Helper()
			var stdout, stderr bytes.Buffer
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run %v: %v\n%s", tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), wantStore) {
				t.Errorf("%v: stderr lacks %q:\n%s", tc.args, wantStore, stderr.String())
			}
			return stdout.String()
		}
		cold := pass("store: hits=0 misses=6")
		warm := pass("store: hits=6 misses=0")
		if cold != warm {
			t.Errorf("%v: warm CSV differs from cold:\ncold:\n%s\nwarm:\n%s", tc.args, cold, warm)
		}
		if got := strings.Count(cold, "\n"); got != tc.lines {
			t.Errorf("%v: CSV has %d lines, want a header and %d rows:\n%s", tc.args, got, tc.lines-1, cold)
		}
	}
}

// TestSinglePointFormat: an explicit -format turns one point into a grid
// row, header included, instead of the detailed report.
func TestSinglePointFormat(t *testing.T) {
	args := []string{"-alg", "nbc", "-load", "0.3", "-format", "csv", "-k", "4", "-warmup", "200", "-sample", "200", "-maxsamples", "2"}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "algorithm,pattern,") || !strings.HasPrefix(lines[1], "nbc,uniform,wormhole,0.300,") {
		t.Errorf("want a CSV header and one nbc row, got:\n%s", stdout.String())
	}
}

// TestTableColumnsAlign: in the grid and -replicas tables every row's field
// occupies the span its header does — a left-aligned field starts where its
// header starts, a right-aligned one ends where its header ends — with a
// pattern spec longer than the pattern column's minimum and a grid point
// that stops at max-samples.
func TestTableColumnsAlign(t *testing.T) {
	base := []string{
		"-k", "4", "-alg", "nbc,ecube", "-pattern", "hotspot:0.04:5", "-load", "0.1,0.9",
		"-warmup", "300", "-sample", "1000", "-maxsamples", "4", "-format", "table",
	}
	field := regexp.MustCompile(`\S+`)
	for _, extra := range [][]string{nil, {"-replicas", "2"}} {
		var stdout, stderr bytes.Buffer
		if err := run(append(base, extra...), &stdout, &stderr); err != nil {
			t.Fatalf("run %v: %v\n%s", extra, err, stderr.String())
		}
		out := stdout.String()
		if extra == nil && !(strings.Contains(out, " ok\n") && strings.Contains(out, " max-samples\n")) {
			t.Fatalf("grid wants an ok and a max-samples row:\n%s", out)
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		head := field.FindAllStringIndex(lines[0], -1)
		for _, line := range lines[1:] {
			row := field.FindAllStringIndex(line, -1)
			if len(row) != len(head) {
				t.Errorf("%v: row has %d fields, header %d:\n%s", extra, len(row), len(head), out)
				continue
			}
			for i, f := range row {
				if f[0] != head[i][0] && f[1] != head[i][1] {
					t.Errorf("%v: field %q spans [%d,%d), its header [%d,%d):\n%s\n%s",
						extra, line[f[0]:f[1]], f[0], f[1], head[i][0], head[i][1], lines[0], line)
					break
				}
			}
		}
	}
}

// TestReplicatedProgress: with -replicas a grid's progress bar counts
// algorithms, steps once per algorithm and finishes; one point's bar counts
// the sampling periods of every replica, replicas x -maxsamples in all.
func TestReplicatedProgress(t *testing.T) {
	base := []string{"-k", "4", "-warmup", "200", "-sample", "200", "-progress"}
	for _, tc := range []struct {
		args  []string
		want  string
		atMax int // replicas the one-point report shows stopped at max-samples
	}{
		{[]string{"-alg", "nbc,ecube", "-replicas", "2", "-load", "0.2", "-maxsamples", "2"}, "[2/2] sweep done in", 0},
		// All four replicas run 3 sampling periods, so the bar ends at 12.
		{[]string{"-alg", "nbc", "-replicas", "4", "-load", "0.3", "-maxsamples", "3"}, "[12/12] sample done in", 4},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append(tc.args, base...), &stdout, &stderr); err != nil {
			t.Fatalf("run %v: %v\n%s", tc.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr lacks %q:\n%s", tc.args, tc.want, stderr.String())
		}
		if got := strings.Count(stdout.String(), "[max-samples]"); got != tc.atMax {
			t.Errorf("%v: %d replicas at max-samples, want %d:\n%s", tc.args, got, tc.atMax, stdout.String())
		}
	}
}

// TestReplicatedSweepCounters: -replicas publishes every replica to the
// observatory as a sweep point, so /metrics counts algorithms x loads x
// seeds, all of them done once the sweep is.
func TestReplicatedSweepCounters(t *testing.T) {
	args := []string{
		"-alg", "nbc,ecube", "-load", "0.2,0.3", "-replicas", "2", "-k", "4",
		"-warmup", "200", "-sample", "200", "-maxsamples", "2", "-http", "127.0.0.1:0", "-linger", "1500ms",
	}
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(args, io.Discard, pw)
		pw.Close()
		done <- err
	}()
	var metrics string
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		// The lingering line comes after the sweep, while the server is up.
		if addr, ok := strings.CutPrefix(sc.Text(), "observatory lingering 1.5s on "); ok {
			// Errors are reported, not fatal: run must drain to its end.
			resp, err := http.Get(strings.Fields(addr)[0] + "metrics")
			if err != nil {
				t.Error(err)
				continue
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
			}
			metrics = string(b)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nwormsim_sweep_points_total 8\n", "\nwormsim_sweep_points_done 8\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", strings.TrimSpace(want), metrics)
		}
	}
}

// TestPhaseProfEveryMode: -phaseprof prints the phase report after a single
// point, a grid and both with -replicas.
func TestPhaseProfEveryMode(t *testing.T) {
	base := []string{"-k", "4", "-warmup", "200", "-sample", "200", "-maxsamples", "2", "-phaseprof"}
	for _, mode := range [][]string{
		{"-alg", "nbc"},
		{"-alg", "nbc,ecube"},
		{"-alg", "nbc", "-replicas", "2"},
		{"-alg", "nbc,ecube", "-replicas", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append(mode, base...), &stdout, &stderr); err != nil {
			t.Errorf("run %v: %v\n%s", mode, err, stderr.String())
		} else if !strings.Contains(stdout.String(), "\nphase profile: ") {
			t.Errorf("%v: stdout lacks the phase report:\n%s", mode, stdout.String())
		}
	}
}

// TestConfigFlagsOverride: every flag passed next to -config overrides the
// file, -tick included, and the file fills in the rest.
func TestConfigFlagsOverride(t *testing.T) {
	dir := t.TempDir()
	saved, out := filepath.Join(dir, "c.json"), filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-k", "4", "-alg", "nbc", "-tick", "7", "-saveconfig", saved}, &stdout, &stderr); err != nil {
		t.Fatalf("save: %v\n%s", err, stderr.String())
	}
	args := []string{"-config", saved, "-tick", "50", "-k", "6", "-switching", "vct", "-seed", "9", "-saveconfig", out}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("override: %v\n%s", err, stderr.String())
	}
	cfg, err := core.LoadConfig(out)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TickCycles != 50 || cfg.K != 6 || cfg.Switching != core.CutThrough || cfg.Seed != 9 || cfg.Algorithm != "nbc" || cfg.OfferedLoad != 0.4 {
		t.Errorf("got tick %d, k %d, switching %s, seed %d, alg %s, load %g; want 50, 6, vct, 9, nbc, 0.4",
			cfg.TickCycles, cfg.K, cfg.Switching, cfg.Seed, cfg.Algorithm, cfg.OfferedLoad)
	}
}

// TestExitCode: a deadlocked point and a deadlocked -replicas run exit 2,
// a bad config exits 1. No run the CLI can configure wedges in test time, so
// the deadlocks come from a run store: a first pass records real runs, and
// copies of those records marked deadlocked seed a second store that a
// rerun is served from. The status depends on the sentinel surviving each
// fmt.Errorf wrap on the way out of run.
func TestExitCode(t *testing.T) {
	base := []string{"-k", "4", "-alg", "nbc", "-load", "0.3", "-warmup", "200", "-sample", "200", "-maxsamples", "2"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"point", base},
		{"replicas", append([]string{"-replicas", "2"}, base...)},
	} {
		fresh, wedged := t.TempDir(), t.TempDir()
		var stdout, stderr bytes.Buffer
		if err := run(append([]string{"-store", fresh}, tc.args...), &stdout, &stderr); err != nil {
			t.Fatalf("%s: record: %v\n%s", tc.name, err, stderr.String())
		}
		src, err := runstore.Open(fresh)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := runstore.Open(wedged)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range src.List() {
			rec.Result.Deadlocked = true
			if err := dst.Store(rec.Hash, rec.Config, rec.Result); err != nil {
				t.Fatal(err)
			}
		}
		src.Close()
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		err = run(append([]string{"-store", wedged}, tc.args...), &stdout, &stderr)
		if got := exitCode(err); got != 2 || strings.Contains(err.Error(), "%!") {
			t.Errorf("%s: deadlocked run returned %q: exit %d, want 2 and a well-formed message", tc.name, err, got)
		}
	}
	var stdout, stderr bytes.Buffer
	err := run([]string{"-k", "4", "-switching", "bogus"}, &stdout, &stderr)
	if got := exitCode(err); got != 1 {
		t.Errorf("bad config returned %v: exit %d, want 1", err, got)
	}
}
