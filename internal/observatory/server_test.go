package observatory

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wormsim/internal/core"
	"wormsim/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	code, _, body := getTyped(t, url)
	return code, body
}

// getTyped is get that also returns the response's Content-Type.
func getTyped(t *testing.T, url string) (code int, contentType, body string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

func TestServerEndpoints(t *testing.T) {
	pub := testPublisher()
	srv, err := Listen("127.0.0.1:0", pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Before the first tick: index up, snapshot unavailable, heatmap empty.
	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code %d, body %.80q", code, body)
	}
	if code, ct, _ := getTyped(t, base+"/snapshot"); code != http.StatusServiceUnavailable || ct != "application/json" {
		t.Errorf("snapshot before tick: code %d, Content-Type %q, want 503 and application/json", code, ct)
	}
	if _, body := get(t, base+"/heatmap.svg"); !strings.Contains(body, "waiting for first tick") {
		t.Errorf("heatmap before tick: %.120q", body)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: code %d, want 404", code)
	}

	cfg := goldenConfig()
	cfg.OnTick = pub.PublishTick
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	code, body := get(t, base+"/snapshot")
	if code != 200 {
		t.Fatalf("snapshot: code %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if !snap.Tick.Final || snap.Tick.Algorithm != "nbc" || snap.Tick.Cycle == 0 {
		t.Errorf("snapshot tick: %+v", snap.Tick)
	}
	if snap.Tick.Counters.Delivered != res.Delivered {
		t.Errorf("snapshot delivered %d, run says %d", snap.Tick.Counters.Delivered, res.Delivered)
	}

	if _, body := get(t, base+"/metrics"); !strings.Contains(body, "wormsim_cycles_total") {
		t.Errorf("metrics: %.120q", body)
	}
	if _, body := get(t, base+"/heatmap.svg"); !strings.Contains(body, "<svg ") || !strings.Contains(body, "flits</title>") {
		t.Errorf("heatmap svg: %.120q", body)
	}
	if _, body := get(t, base+"/heatmap"); !strings.Contains(body, "/heatmap.svg") {
		t.Errorf("heatmap page: %.120q", body)
	}
	if _, body := get(t, base+"/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof: %.120q", body)
	}
	if _, body := get(t, base+"/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("expvar: %.120q", body)
	}
}

func TestSSEStream(t *testing.T) {
	pub := testPublisher()
	srv, err := Listen("127.0.0.1:0", pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Publish one tick, then connect: the handler replays the current state
	// as its opening frame.
	cfg := goldenConfig()
	cfg.OnTick = pub.PublishTick
	if _, err := core.Run(cfg); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	frame := make([]byte, 4096)
	n, err := resp.Body.Read(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := string(frame[:n])
	if !strings.Contains(got, "event: tick") || !strings.Contains(got, `"final":true`) {
		t.Errorf("opening frame: %q", got)
	}
}

func TestSubscribeBroadcast(t *testing.T) {
	pub := testPublisher()
	frames, cancel := pub.Subscribe()
	ev := core.TickEvent{Algorithm: "ecube", Pattern: "uniform", K: 4, N: 2, Cycle: 100,
		Events: []telemetry.Event{{Cycle: 99, Msg: 1, Type: telemetry.EvInject}}}
	pub.PublishTick(ev)
	tick := string(<-frames)
	if !strings.Contains(tick, "event: tick") || !strings.Contains(tick, `"cycle":100`) {
		t.Errorf("tick frame: %q", tick)
	}
	worm := string(<-frames)
	if !strings.Contains(worm, "event: worm") {
		t.Errorf("worm frame: %q", worm)
	}
	pub.PublishPoint(2, core.Result{Algorithm: "ecube"})
	point := string(<-frames)
	if !strings.Contains(point, "event: point") || !strings.Contains(point, `"index":2`) {
		t.Errorf("point frame: %q", point)
	}
	cancel()
	if _, ok := <-frames; ok {
		t.Error("channel not closed after cancel")
	}
	// Unsubscribed publishers drop frames rather than block.
	pub.PublishTick(ev)
}

func TestSlowSubscriberNeverBlocks(t *testing.T) {
	pub := testPublisher()
	_, cancel := pub.Subscribe() // never read
	defer cancel()
	ev := core.TickEvent{Algorithm: "ecube", K: 4, N: 2}
	for i := 0; i < 500; i++ {
		ev.Cycle = int64(i)
		pub.PublishTick(ev) // must not deadlock once the buffer fills
	}
}

// sweep runs cfg over loads as a one-algorithm core.RunFigure and returns
// the results in load order.
func sweep(cfg core.Config, loads []float64, onDone func(int, core.Result)) ([]core.Result, error) {
	spec := core.FigureSpec{ID: "sweep", Pattern: cfg.Pattern, Switching: cfg.Switching,
		Algorithms: []string{cfg.Algorithm}, Loads: loads}
	fr, err := core.RunFigure(spec, cfg, onDone)
	return fr.Series[0].Results, err
}

// TestObservedRunIsBitIdentical is the determinism acceptance test: a sweep
// with the observatory attached and clients hammering every endpoint must
// produce results bit-identical to the same sweep with no observer. Run
// under -race this also proves the publication path is data-race free.
func TestObservedRunIsBitIdentical(t *testing.T) {
	cfg := core.Config{
		K: 4, N: 2, Algorithm: "nbc", Pattern: "uniform", Seed: 11,
		WarmupCycles: 300, SampleCycles: 150, GapCycles: 50,
		MinSamples: 2, MaxSamples: 3,
		Telemetry: &telemetry.Options{Metrics: true, Trace: true, TraceCap: 128},
	}
	loads := []float64{0.2, 0.5}
	base, err := sweep(cfg, loads, nil)
	if err != nil {
		t.Fatal(err)
	}

	obs := cfg
	obs.TickCycles = 50
	pub := NewPublisher()
	obs.OnTick = pub.PublishTick
	pp := telemetry.NewPhaseProfiler()
	obs.PhaseProf = pp
	pub.SetPhases(pp)
	pub.SetSweepTotal(len(loads))
	srv, err := Listen("127.0.0.1:0", pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	baseURL := "http://" + srv.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", "/snapshot", "/heatmap.svg"} {
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
	ctx, cancelSSE := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/events", nil)
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}()

	got, err := sweep(obs, loads, pub.PublishPoint)
	close(stop)
	cancelSSE()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(base, got) {
		t.Errorf("observed sweep diverged from bare sweep:\nbase %+v\ngot  %+v", base, got)
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
		t.Error("observed sweep JSON not byte-identical to bare sweep")
	}
	if snap := pub.Snapshot(); snap == nil || snap.SweepDone != len(loads) || len(snap.Results) != len(loads) {
		t.Errorf("publisher missed sweep completions: %+v", snap)
	}
}
