package observatory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/runstore"
)

// apiConfig is a small deterministic point for API tests; alg varies the
// algorithm while everything else stays aligned (same PairKey).
func apiConfig(alg string, load float64) core.Config {
	return core.Config{
		K: 4, N: 2, Algorithm: alg, Pattern: "uniform", OfferedLoad: load,
		Seed: 7, WarmupCycles: 200, SampleCycles: 100, GapCycles: 50,
		MinSamples: 2, MaxSamples: 2,
	}
}

// newTestAPI builds a server over a fresh store in a temp dir.
func newTestAPI(t *testing.T) (*Server, *runstore.Store, string) {
	t.Helper()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	api := NewAPI(store, nil, 2)
	t.Cleanup(api.Close)
	srv, err := Listen("127.0.0.1:0", testPublisher(), api)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, store, "http://" + srv.Addr()
}

func postJSON(t *testing.T, url string, v any) (int, string) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.String()
}

// waitDone polls GET /api/runs/{hash} until the run settles into the store.
func waitDone(t *testing.T, base, hash string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := get(t, base+"/api/runs/"+hash)
		if code == 200 && strings.Contains(body, `"state": "done"`) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never reached done", hash)
}

// TestAPISubmitPollCompare walks the documented submit → poll → compare
// loop: a cold submission queues and simulates, the identical resubmission
// answers from the store with a bit-identical Result, and the two
// algorithms' points align on /api/compare.
func TestAPISubmitPollCompare(t *testing.T) {
	_, store, base := newTestAPI(t)

	cfg := apiConfig("nbc", 0.3)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hash := cfg.Hash()

	code, body := postJSON(t, base+"/api/runs", cfg)
	if code != http.StatusAccepted {
		t.Fatalf("cold submit: code %d body %.200s", code, body)
	}
	var st runStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Hash != hash || (st.State != "queued" && st.State != "running") {
		t.Fatalf("cold submit status: %+v", st)
	}
	waitDone(t, base, hash)

	// Warm resubmission: instant, cached, bit-identical.
	code, body = postJSON(t, base+"/api/runs", cfg)
	if code != http.StatusOK {
		t.Fatalf("warm submit: code %d body %.200s", code, body)
	}
	var warm runStatus
	if err := json.Unmarshal([]byte(body), &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.State != "done" || warm.Result == nil {
		t.Fatalf("warm submit status: %+v", warm)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(warm.Result)
	if !bytes.Equal(wj, gj) {
		t.Errorf("cached result not bit-identical to direct run:\nwant %s\ngot  %s", wj, gj)
	}
	if store.Hits() == 0 {
		t.Error("warm submission did not count a store hit")
	}

	// Second algorithm at the same point, then compare.
	other := apiConfig("ecube", 0.3)
	if code, _ := postJSON(t, base+"/api/runs", other); code != http.StatusAccepted {
		t.Fatalf("second submit: code %d", code)
	}
	waitDone(t, base, other.Hash())

	code, body = get(t, base+"/api/runs")
	if code != 200 || !strings.Contains(body, hash) || !strings.Contains(body, other.Hash()) {
		t.Errorf("listing: code %d body %.200s", code, body)
	}

	code, body = get(t, base+"/api/compare?a=nbc&b=ecube")
	if code != 200 {
		t.Fatalf("compare: code %d", code)
	}
	var cmp comparison
	if err := json.Unmarshal([]byte(body), &cmp); err != nil {
		t.Fatal(err)
	}
	if len(cmp.Points) != 1 || cmp.AOnly != 0 || cmp.BOnly != 0 {
		t.Fatalf("compare points: %+v", cmp)
	}
	p := cmp.Points[0]
	if p.OfferedLoad != 0.3 || p.A.Hash != hash || p.B.Hash != other.Hash() {
		t.Errorf("aligned point: %+v", p)
	}
	if p.A.AvgLatency != want.AvgLatency {
		t.Errorf("compare latency %v, direct run %v", p.A.AvgLatency, want.AvgLatency)
	}

	if _, body := get(t, base+"/compare.svg?a=nbc&b=ecube"); !strings.Contains(body, "nbc") || !strings.Contains(body, "ecube") {
		t.Errorf("compare svg: %.200q", body)
	}
}

// TestAPICompareGolden pins the full query surface byte-for-byte: identical
// stores must serve identical /api/compare JSON and /compare.svg documents.
func TestAPICompareGolden(t *testing.T) {
	_, store, base := newTestAPI(t)
	for _, alg := range []string{"nbc", "ecube"} {
		for _, load := range []float64{0.2, 0.4, 0.6} {
			cfg := apiConfig(alg, load)
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Store(cfg.Hash(), cfg.Canonical(), res); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, g := range []struct{ url, file string }{
		{"/api/compare?a=nbc&b=ecube", "compare.json.golden"},
		{"/compare.svg?a=nbc&b=ecube", "compare.svg.golden"},
	} {
		code, body := get(t, base+g.url)
		if code != 200 {
			t.Fatalf("%s: code %d", g.url, code)
		}
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if body != string(want) {
			t.Errorf("%s drifted from %s — intentional? regenerate with -update", g.url, path)
		}
	}
}

// TestAPIWithoutStore: every API endpoint answers 503 when no store is
// attached, rather than panicking on a nil API.
func TestAPIWithoutStore(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", testPublisher(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/api/runs", "/api/runs/abc", "/api/compare?a=x&b=y", "/compare.svg?a=x&b=y"} {
		if code, _ := get(t, base+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s without store: code %d, want 503", path, code)
		}
	}
}

func TestAPIErrors(t *testing.T) {
	srv, _, base := newTestAPI(t)
	resp, err := http.Post(base+"/api/runs", "application/json", strings.NewReader(`{"NoSuchField": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: code %d, want 400", resp.StatusCode)
	}
	if code, _ := get(t, base+"/api/runs/"+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Errorf("unknown hash: code %d, want 404", code)
	}
	if code, _ := get(t, base+"/api/compare"); code != http.StatusBadRequest {
		t.Errorf("compare without params: code %d, want 400", code)
	}
	// A body past the size limit is refused before it is buffered.
	huge := `{"Algorithm":"` + strings.Repeat("a", maxSubmitBytes) + `"}`
	resp, err = http.Post(base+"/api/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code %d, want 413", resp.StatusCode)
	}
	// At the pending cap a new point is turned away with a retry hint, while
	// a resubmission of a point already pending still rides the existing run.
	riding := apiConfig("nbc", 0.3).Hash()
	srv.api.mu.Lock()
	srv.api.pending[riding] = &runState{hash: riding, state: "queued"}
	for i := 1; i < maxPending; i++ {
		srv.api.pending[fmt.Sprint(i)] = &runState{state: "queued"}
	}
	srv.api.mu.Unlock()
	resp, err = http.Post(base+"/api/runs", "application/json", strings.NewReader(`{"Algorithm": "ecube"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("submit at pending cap: code %d Retry-After %q, want 429 and 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code, _ := postJSON(t, base+"/api/runs", apiConfig("nbc", 0.3)); code != http.StatusAccepted {
		t.Errorf("resubmission of a pending point at the cap: code %d, want 202", code)
	}
	srv.api.mu.Lock()
	clear(srv.api.pending)
	srv.api.mu.Unlock()
	// An invalid config fails asynchronously and frees the slot for
	// resubmission instead of wedging as pending forever.
	bad := apiConfig("nosuchalg", 0.3)
	if code, _ := postJSON(t, base+"/api/runs", bad); code != http.StatusAccepted {
		t.Fatalf("bad config submit not accepted")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := get(t, base+"/api/runs/"+bad.Hash()); code == http.StatusNotFound {
			break // failed runs are forgotten, not stored
		}
		if time.Now().After(deadline) {
			t.Fatal("failed run still pending")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A config the engine cannot build (a 1-ary torus) settles as failed on
	// its scheduler worker, and the server still answers. Both workers are
	// held until the events stream has subscribed, so the stream sees the
	// whole lifecycle.
	gate := make(chan struct{})
	for range 2 {
		srv.api.sched.Submit(func() { <-gate })
	}
	var k1 core.Config
	k1.K = 1
	if code, body := postJSON(t, base+"/api/runs", k1); code != http.StatusAccepted {
		t.Fatalf("K=1 submit: code %d body %.200s", code, body)
	}
	stream, err := http.Get(base + "/api/runs/" + k1.Canonical().Hash() + "/events")
	close(gate)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var frames bytes.Buffer
	frames.ReadFrom(stream.Body) //nolint:errcheck // reads until the run settles and the stream closes
	if !strings.Contains(frames.String(), `"state":"failed"`) || !strings.Contains(frames.String(), "radix") {
		t.Errorf("K=1 run did not settle as failed: %.400q", frames.String())
	}
	if code, _ := get(t, base+"/api/runs"); code != http.StatusOK {
		t.Errorf("after the failed run: GET /api/runs code %d, want 200", code)
	}
}

// TestAPIRunEvents: the per-run SSE feed streams status transitions and
// settles with a done frame carrying the Result.
func TestAPIRunEvents(t *testing.T) {
	_, _, base := newTestAPI(t)
	cfg := apiConfig("nbc", 0.25)
	if code, _ := postJSON(t, base+"/api/runs", cfg); code != http.StatusAccepted {
		t.Fatal("submit not accepted")
	}
	resp, err := http.Get(base + "/api/runs/" + cfg.Hash() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // reads until the run settles and the stream closes
	body := buf.String()
	if !strings.Contains(body, "event: status") || !strings.Contains(body, `"state":"done"`) {
		t.Errorf("event stream: %.300q", body)
	}
	// A settled run replays a single cached done frame.
	resp2, err := http.Get(base + "/api/runs/" + cfg.Hash() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf.Reset()
	buf.ReadFrom(resp2.Body) //nolint:errcheck
	if !strings.Contains(buf.String(), `"cached":true`) {
		t.Errorf("replayed stream: %.300q", buf.String())
	}
}
