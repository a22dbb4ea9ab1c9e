package observatory

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// goldenBlameConfig pushes the golden run hard enough that worms actually
// block, with every-cycle forensics so the blame ledger is exact and the
// golden bytes are a pure function of the config.
func goldenBlameConfig() core.Config {
	cfg := goldenConfig()
	cfg.OfferedLoad = 0.8
	cfg.Forensics = &forensics.Options{SampleEvery: 1}
	return cfg
}

func TestBlameEndpointsGolden(t *testing.T) {
	pub := testPublisher()
	srv, err := Listen("127.0.0.1:0", pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	cfg := goldenBlameConfig()
	cfg.OnTick = pub.PublishTick
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}

	code, gotJSON := get(t, base+"/blame")
	if code != 200 {
		t.Fatalf("/blame: code %d, body %.120q", code, gotJSON)
	}
	code, gotSVG := get(t, base+"/blame.svg")
	if code != 200 {
		t.Fatalf("/blame.svg: code %d", code)
	}

	for name, got := range map[string]string{"blame.golden.json": gotJSON, "blame.golden.svg": gotSVG} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if string(want) != got {
			t.Errorf("%s drifted from golden (re-run with -update if intended)\ngot:\n%.400s", name, got)
		}
	}

	// Shape sanity beyond byte equality, so a bad regen cannot slip through.
	var resp struct {
		TopRoots []blameRoot        `json:"topRoots"`
		Summary  *forensics.Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(gotJSON), &resp); err != nil {
		t.Fatalf("/blame not JSON: %v", err)
	}
	if len(resp.TopRoots) == 0 || resp.Summary == nil || resp.Summary.BlockedObserved == 0 {
		t.Fatalf("blame response carries no attribution: %+v", resp)
	}
	if resp.Summary.Attributed == 0 || len(resp.Summary.Anatomy) == 0 {
		t.Errorf("summary missing attribution or anatomy: %+v", resp.Summary)
	}
	if !strings.Contains(gotSVG, "tree root") || !strings.Contains(gotSVG, "blamed worm-cycles") {
		t.Errorf("blame SVG missing ringed roots or blame cells:\n%.200s", gotSVG)
	}
}

func TestBlameBeforeForensics(t *testing.T) {
	pub := testPublisher()
	srv, err := Listen("127.0.0.1:0", pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Before any tick, and after a tick from a run without forensics, both
	// endpoints must answer with explicit "not available" states.
	check := func(stage string) {
		t.Helper()
		if code, _ := get(t, base+"/blame"); code != http.StatusServiceUnavailable {
			t.Errorf("%s: /blame code %d, want 503", stage, code)
		}
		if _, body := get(t, base+"/blame.svg"); !strings.Contains(body, "no forensics summary yet") {
			t.Errorf("%s: /blame.svg placeholder missing: %.120q", stage, body)
		}
	}
	check("before first tick")
	cfg := goldenConfig()
	cfg.OnTick = pub.PublishTick
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}
	check("forensics-less run")
}

func TestBlameSSEFrame(t *testing.T) {
	pub := testPublisher()
	frames, cancel := pub.Subscribe()
	defer cancel()
	pub.PublishTick(core.TickEvent{Algorithm: "nbc", K: 4, N: 2, Cycle: 50,
		Forensics: &forensics.Summary{
			SampleEvery: 1, Samples: 2, BlockedObserved: 10, Attributed: 10,
			Trees: 2, BlameByChannel: []int64{0, 0, 10}, RootsByChannel: []int64{0, 0, 2},
		}})
	tick := string(<-frames)
	if !strings.Contains(tick, "event: tick") {
		t.Fatalf("first frame not a tick: %q", tick)
	}
	blame := string(<-frames)
	for _, want := range []string{"event: blame", `"observed":10`, `"attributedFraction":1`, `"topRoots":[{"Ch":2`} {
		if !strings.Contains(blame, want) {
			t.Errorf("blame frame missing %q: %q", want, blame)
		}
	}
	// Ticks without a forensics summary must not emit a blame frame.
	pub.PublishTick(core.TickEvent{Algorithm: "nbc", K: 4, N: 2, Cycle: 60})
	if next := string(<-frames); !strings.Contains(next, "event: tick") {
		t.Errorf("expected plain tick, got %q", next)
	}
	select {
	case extra := <-frames:
		t.Errorf("unexpected frame after forensics-less tick: %q", extra)
	default:
	}
}

// TestForensicsRunIsBitIdentical is the forensics variant of the determinism
// acceptance test: a sweep with every-cycle forensics, the observatory
// attached, and clients hammering the blame endpoints must produce results
// bit-identical to the bare, forensics-less sweep — the Forensics summary is
// the only field allowed to differ. Under -race this also proves the blame
// publication path is data-race free.
func TestForensicsRunIsBitIdentical(t *testing.T) {
	cfg := core.Config{
		K: 4, N: 2, Algorithm: "nbc", Pattern: "uniform", Seed: 11,
		WarmupCycles: 300, SampleCycles: 150, GapCycles: 50,
		MinSamples: 2, MaxSamples: 3,
		Telemetry: &telemetry.Options{Metrics: true},
	}
	loads := []float64{0.3, 0.6}
	base, err := sweep(cfg, loads, nil)
	if err != nil {
		t.Fatal(err)
	}

	obs := cfg
	obs.Forensics = &forensics.Options{SampleEvery: 1}
	obs.TickCycles = 50
	pub := NewPublisher()
	obs.OnTick = pub.PublishTick
	pub.SetSweepTotal(len(loads))
	srv, err := Listen("127.0.0.1:0", pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	baseURL := "http://" + srv.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/blame", "/blame.svg", "/metrics", "/snapshot"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(baseURL + path)
				if err == nil {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
				}
			}
		}(path)
	}

	got, err := sweep(obs, loads, pub.PublishPoint)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	for i := range got {
		if got[i].Forensics == nil {
			t.Errorf("point %d missing its forensics summary", i)
		}
		got[i].Forensics = nil
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("forensics sweep diverged from bare sweep:\nbase %+v\ngot  %+v", base, got)
	}
	bj, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bj, gj) {
		t.Error("forensics sweep JSON not byte-identical to bare sweep")
	}
}
