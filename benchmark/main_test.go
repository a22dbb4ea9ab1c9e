package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"wormsim/internal/core"
)

// tiny is the test methodology: the harness is under test here, not the
// simulator, so points are a twentieth of the quick methodology on a 4x4 grid.
var tiny = method{warmup: 100, sample: 100, gap: 20, maxSamples: 3}

func testOptions(t *testing.T) options {
	return options{
		k: 4, m: tiny, seed: 1, seconds: 60,
		maxRounds: 2, minReps: 3,
		scratch: t.TempDir(),
	}
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatches holds BENCHMARK.json to the harness's own tables, so
// the names the driver expects are the names the harness prints.
func TestManifestMatches(t *testing.T) {
	m := readManifest(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(m.Command, want) {
		t.Errorf("command = %v, want %v", m.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(m.Paths, want) {
		t.Errorf("paths = %v, want %v", m.Paths, want)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, harness default is %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(m.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d = %q (%q), spec is %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v\nwant %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v\nwant %+v", m.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

// TestEveryMetricPrinted runs every workload both ways on the 4x4 grid and
// requires each run to pass its checks and to print and report exactly the
// metrics of its table.
func TestEveryMetricPrinted(t *testing.T) {
	for _, sp := range specs {
		for _, mode := range []struct {
			name string
			defs []metricDef
		}{{"end_to_end", endToEnd}, {"per_layer", perLayer}} {
			o := testOptions(t)
			var buf bytes.Buffer
			var out outcome
			var err error
			if mode.name == "per_layer" {
				o.traceFile = filepath.Join(o.scratch, "trace.json")
				out, err = runTraced(&buf, sp, o)
			} else {
				out, err = runEndToEnd(&buf, sp, o)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", sp.name, mode.name, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s %s: outcome %+v\n%s", sp.name, mode.name, out, buf.String())
			}
			if len(out.Metrics) != len(mode.defs) {
				t.Errorf("%s %s: %d metrics reported, table has %d", sp.name, mode.name, len(out.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				if v, ok := out.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s %s: metric %s missing or in unit %q, want %q", sp.name, mode.name, d.Name, v.Unit, d.Unit)
				}
				if !strings.Contains(buf.String(), "\n"+d.Name+" ") {
					t.Errorf("%s %s: metric %s not printed", sp.name, mode.name, d.Name)
				}
			}
			if !strings.Contains(buf.String(), "== "+sp.name+"\n") || !strings.Contains(buf.String(), "\nfailed_share ") {
				t.Errorf("%s %s: workload name or failed_share not printed", sp.name, mode.name)
			}
			if mode.name == "per_layer" {
				checkTrace(t, o.traceFile)
			}
		}
	}
}

// checkTrace requires a loadable Chrome trace: complete events with
// non-negative durations whose parents exist.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Ts < 0 {
			t.Fatalf("bad event %+v", ev)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"runstore.lookup", "runstore.store", "network.transfer", "network.new", "traffic.setup", "core.hash", "stats.add"} {
		if !names[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}

func TestAggregators(t *testing.T) {
	rounds := [][]float64{{3, 1, 5}, {2, 4, 5}, {9, 9, 4}}
	if got := sumOfMins(rounds); got != 2+1+4 {
		t.Errorf("sumOfMins = %g, want 7", got)
	}
	if got := sumOfMins(rounds[:1]); got != 9 {
		t.Errorf("sumOfMins of one round = %g, want 9", got)
	}
	if got := quantile([]float64{50, 10, 40, 20, 30}, 0.25); got != 20 {
		t.Errorf("quantile(0.25) = %g, want 20", got)
	}
	if got := quietest([]float64{4, 1.5, 3}); got != 1.5 {
		t.Errorf("quietest = %g, want 1.5", got)
	}
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64((i*7)%30 + 1) // 1..30 in scrambled order
	}
	if got := nthSlowest(xs, 11); got != 20 {
		t.Errorf("nthSlowest(11) of 1..30 = %g, want 20", got)
	}
	if got := nthSlowest([]float64{2, 3}, 11); got != 2 {
		t.Errorf("nthSlowest(11) of two values = %g, want the minimum 2", got)
	}
	if got := spread([]float64{11, 10, 12}); got != 0.2 {
		t.Errorf("spread = %g, want 0.2", got)
	}
}

// TestCorruptedResultFails feeds verify a real round and then corrupted
// copies of it: each corruption must show up in failed_share.
func TestCorruptedResultFails(t *testing.T) {
	sp, o := specs[0], testOptions(t)
	units := sp.units(o.k, o.m, o.seed)[:3]
	good := roundData{results: make([][]core.Result, len(units))}
	for i, u := range units {
		res, err := u.run(hooks{workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		good.results[i] = res
	}
	pin, err := digest(good.flat())
	if err != nil {
		t.Fatal(err)
	}
	o.digests = map[string]string{sp.name: pin}
	ck, err := verify(sp, o, []roundData{good, good}, good.flat())
	if err != nil || ck.failed() != 0 || ck.attempted != 3 {
		t.Fatalf("clean results: failed=%d attempted=%d err=%v notes=%v", ck.failed(), ck.attempted, err, ck.notes)
	}

	corrupt := func(edit func(*core.Result)) roundData {
		bad := roundData{results: make([][]core.Result, len(units))}
		for i := range good.results {
			bad.results[i] = append([]core.Result(nil), good.results[i]...)
		}
		edit(&bad.results[1][0])
		return bad
	}
	cases := map[string]func(*core.Result){
		"conservation": func(r *core.Result) { r.Dropped++ },
		"delivered":    func(r *core.Result) { r.Delivered = r.Admitted + 1 },
		"throughput":   func(r *core.Result) { r.Throughput = 0 },
		"cycles":       func(r *core.Result) { r.Cycles++ },
		"deadlock":     func(r *core.Result) { r.Deadlocked = true },
	}
	for name, edit := range cases {
		bad := corrupt(edit)
		// As the cold reference: the invariant (and the pinned digest) trips.
		ck, err := verify(sp, o, []roundData{bad}, bad.flat())
		if err != nil || ck.failed() == 0 {
			t.Errorf("%s: corrupted cold round not counted as failed (err=%v)", name, err)
		}
		// As a later round and as the warm rerun: equality with round 0 trips.
		ck, err = verify(sp, o, []roundData{good, bad}, good.flat())
		if err != nil || ck.failed() != 1 {
			t.Errorf("%s: corrupted second round: failed=%d, want 1 (err=%v)", name, ck.failed(), err)
		}
		ck, err = verify(sp, o, []roundData{good}, bad.flat())
		if err != nil || ck.failed() != 1 {
			t.Errorf("%s: corrupted warm rerun: failed=%d, want 1 (err=%v)", name, ck.failed(), err)
		}
	}
	// A latency off by one ulp breaks no invariant; only the digest sees it.
	o.digests = map[string]string{sp.name: strings.Repeat("0", 64)}
	ck, err = verify(sp, o, []roundData{good}, good.flat())
	if err != nil || ck.failed() != 1 {
		t.Errorf("digest mismatch: failed=%d, want 1 (err=%v)", ck.failed(), err)
	}
}
