package bench

import (
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleArtifact() Artifact {
	return Artifact{
		Schema: Schema, CreatedAt: "2026-08-05T00:00:00Z",
		GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8,
		Short: true,
		Benchmarks: []Measurement{
			{Name: "engine/nbc", NsPerOp: 1000, AllocsPerOp: 2, BytesPerOp: 64,
				CyclesPerSec: 1e6, FlitHopsPerSec: 2e6,
				PhaseShares: map[string]float64{"inject": 0.1, "route": 0.4, "eject": 0.1, "transfer": 0.3, "watchdog": 0.1}},
			{Name: "point/fig3/nbc/rho=0.6", NsPerOp: 5e8, CyclesPerSec: 2e4, FlitHopsPerSec: 9e4},
		},
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	want := sampleArtifact()
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := WriteArtifact(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip drifted:\nwrote %+v\nread  %+v", want, got)
	}
}

func TestReadArtifactRejectsWrongSchema(t *testing.T) {
	a := sampleArtifact()
	a.Schema = "wormsim-bench/0"
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := WriteArtifact(path, a); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema accepted (err=%v)", err)
	}
}

func TestLatestAndNextPath(t *testing.T) {
	dir := t.TempDir()
	if p, n, err := Latest(dir); err != nil || p != "" || n != 0 {
		t.Fatalf("empty dir: %q %d %v", p, n, err)
	}
	next, err := NextPath(dir)
	if err != nil || filepath.Base(next) != "BENCH_1.json" {
		t.Fatalf("first artifact path %q (%v)", next, err)
	}
	for _, name := range []string{"BENCH_1.json", "BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "notes.txt"} {
		if err := WriteArtifact(filepath.Join(dir, name), sampleArtifact()); err != nil {
			t.Fatal(err)
		}
	}
	p, n, err := Latest(dir)
	if err != nil || filepath.Base(p) != "BENCH_10.json" || n != 10 {
		t.Fatalf("latest: %q %d %v", p, n, err)
	}
	if next, _ := NextPath(dir); filepath.Base(next) != "BENCH_11.json" {
		t.Errorf("next path %q", next)
	}
}

func TestCompare(t *testing.T) {
	old := sampleArtifact()
	cur := sampleArtifact()
	cur.Benchmarks[0].NsPerOp = 1200 // 20% slower: beyond a 10% threshold
	cur.Benchmarks[1].NsPerOp = 4e8  // faster
	cur.Benchmarks = append(cur.Benchmarks, Measurement{Name: "engine/new", NsPerOp: 1})

	deltas, err := Compare(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v, want 2 entries (the new benchmark has no baseline)", deltas)
	}
	if !deltas[0].Regressed || deltas[0].Ratio != 1.2 {
		t.Errorf("engine/nbc delta: %+v", deltas[0])
	}
	if deltas[1].Regressed {
		t.Errorf("speedup flagged as regression: %+v", deltas[1])
	}
	if got := Regressions(deltas, FailTime); len(got) != 1 || got[0].Name != "engine/nbc" {
		t.Errorf("time regressions: %+v", got)
	}
	if got := Regressions(deltas, FailAllocs); len(got) != 0 {
		t.Errorf("alloc regressions flagged without an allocs rise: %+v", got)
	}
	if got := Regressions(deltas, FailNone); len(got) != 0 {
		t.Errorf("advisory mode reported regressions: %+v", got)
	}
	table := FormatDeltas(deltas)
	if !strings.Contains(table, "TIME-REGRESSION") || !strings.Contains(table, "engine/nbc") {
		t.Errorf("table:\n%s", table)
	}

	// Allocation gate: a first steady-state allocation (0 -> 1) blocks even
	// though the absolute rise is tiny, while whole-run MemStats jitter
	// (under the fractional threshold) stays quiet.
	old = sampleArtifact()
	old.Benchmarks[0].AllocsPerOp = 0
	old.Benchmarks[1].AllocsPerOp = 50000
	cur = sampleArtifact()
	cur.Benchmarks[0].AllocsPerOp = 1
	cur.Benchmarks[1].AllocsPerOp = 51000 // 2% jitter: under the 10% threshold
	deltas, err = Compare(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	got := Regressions(deltas, FailAllocs)
	if len(got) != 1 || got[0].Name != "engine/nbc" || !got[0].AllocsRegressed {
		t.Errorf("alloc regressions: %+v", got)
	}
	if table := FormatDeltas(deltas); !strings.Contains(table, "ALLOC-REGRESSION") {
		t.Errorf("table missing alloc flag:\n%s", table)
	}
	if got := Regressions(deltas, FailAll); len(got) != 1 {
		t.Errorf("all-mode regressions: %+v", got)
	}

	// Flit-hops gate: a drop in the engine's real work rate beyond the
	// threshold blocks under -failon flithops and -failon all, a rise or
	// jitter does not, and benchmarks without flit traffic are exempt.
	old = sampleArtifact()
	cur = sampleArtifact()
	cur.Benchmarks[0].FlitHopsPerSec = old.Benchmarks[0].FlitHopsPerSec * 0.8  // 20% slower at real work
	cur.Benchmarks[1].FlitHopsPerSec = old.Benchmarks[1].FlitHopsPerSec * 1.05 // improvement
	deltas, err = Compare(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	got = Regressions(deltas, FailFlitHops)
	if len(got) != 1 || got[0].Name != "engine/nbc" || !got[0].FlitHopsRegressed {
		t.Errorf("flit-hops regressions: %+v", got)
	}
	if got := Regressions(deltas, FailAll); len(got) != 1 || got[0].Name != "engine/nbc" {
		t.Errorf("all-mode must include the flit-hops class: %+v", got)
	}
	if got := Regressions(deltas, FailAllocs); len(got) != 0 {
		t.Errorf("flit-hops drop misfiled under allocs: %+v", got)
	}
	if table := FormatDeltas(deltas); !strings.Contains(table, "FLITHOPS-REGRESSION") {
		t.Errorf("table missing flit-hops flag:\n%s", table)
	}
	old.Benchmarks[0].FlitHopsPerSec = 0 // e.g. the saf engine: no flit channels
	cur.Benchmarks[0].FlitHopsPerSec = 0
	deltas, err = Compare(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if got := Regressions(deltas, FailFlitHops); len(got) != 0 {
		t.Errorf("zero-rate benchmark flagged: %+v", got)
	}

	// Guard rails: mismatched schema or suite size refuse to compare.
	bad := sampleArtifact()
	bad.Short = false
	if _, err := Compare(old, bad, 0.1); err == nil {
		t.Error("short-vs-full comparison accepted")
	}
	bad = sampleArtifact()
	bad.Schema = "other/1"
	if _, err := Compare(old, bad, 0.1); err == nil {
		t.Error("cross-schema comparison accepted")
	}
}

func TestParseFailOn(t *testing.T) {
	for _, c := range []struct {
		in   string
		want FailOn
		ok   bool
	}{
		{"", FailNone, true},
		{"none", FailNone, true},
		{"time", FailTime, true},
		{"allocs", FailAllocs, true},
		{"flithops", FailFlitHops, true},
		{"all", FailAll, true},
		{"bogus", FailNone, false},
	} {
		got, err := ParseFailOn(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseFailOn(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestSuiteSmoke runs the cheapest spec once and sanity-checks the
// measurement. Capping benchtime keeps testing.Benchmark to a single
// iteration batch.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark iteration")
	}
	if err := flag.Set("test.benchtime", "100x"); err != nil {
		t.Fatal(err)
	}
	specs := Specs(true)
	var engine *Spec
	for i := range specs {
		if specs[i].Name == "engine/ecube" {
			engine = &specs[i]
		}
	}
	if engine == nil {
		t.Fatalf("suite lost its engine specs: %+v", specs)
	}
	m := engine.Run()
	if m.NsPerOp <= 0 || m.CyclesPerSec <= 0 {
		t.Errorf("degenerate measurement: %+v", m)
	}
	if len(m.PhaseShares) != 5 {
		t.Errorf("phase shares: %+v", m.PhaseShares)
	}
	sum := 0.0
	for _, s := range m.PhaseShares {
		sum += s
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("phase shares sum to %g", sum)
	}
}
