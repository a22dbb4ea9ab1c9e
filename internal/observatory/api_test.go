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

// newTestServer builds a server over a fresh store in a temp dir.
func newTestServer(t *testing.T) (*runstore.Store, string) {
	t.Helper()
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := Listen("127.0.0.1:0", testPublisher(), store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return store, "http://" + srv.Addr()
}

// record runs cfg through core.RunCached on store, the path cmd/figures and
// wormsim -store write by, and returns the Result.
func record(t *testing.T, store *runstore.Store, cfg core.Config) core.Result {
	t.Helper()
	cfg.Cache = store
	res, _, err := core.RunCached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAPICompareGolden pins the read surface over records RunCached wrote:
// the listing follows the store's append order, a fetched record carries
// the Result RunCached returned, and identical stores serve identical
// /api/compare JSON and /compare.svg documents, byte for byte.
func TestAPICompareGolden(t *testing.T) {
	store, base := newTestServer(t)
	var hashes []string
	results := make(map[string]core.Result)
	for _, alg := range []string{"nbc", "ecube"} {
		for _, load := range []float64{0.2, 0.4, 0.6} {
			cfg := apiConfig(alg, load)
			hashes = append(hashes, cfg.Hash())
			results[cfg.Hash()] = record(t, store, cfg)
		}
	}

	code, body := get(t, base+"/api/runs")
	var list struct{ Runs []runSummary }
	if err := json.Unmarshal([]byte(body), &list); code != http.StatusOK || err != nil {
		t.Fatalf("listing: code %d, %v: %.200s", code, err, body)
	}
	if len(list.Runs) != len(hashes) {
		t.Fatalf("listing has %d runs, want %d", len(list.Runs), len(hashes))
	}
	for i, run := range list.Runs {
		if run.Hash != hashes[i] || run.Seq != uint64(i) || run.State != "done" {
			t.Errorf("listing row %d: %+v, want hash %s seq %d done", i, run, hashes[i], i)
		}
	}

	h := hashes[0]
	code, body = get(t, base+"/api/runs/"+h)
	var got struct{ Record runstore.Record }
	if err := json.Unmarshal([]byte(body), &got); code != http.StatusOK || err != nil {
		t.Fatalf("GET /api/runs/%s: code %d, %v", h, code, err)
	}
	wj, _ := json.Marshal(results[h])
	gj, _ := json.Marshal(got.Record.Result)
	if !bytes.Equal(wj, gj) {
		t.Errorf("served record not bit-identical to RunCached's Result:\nwant %s\ngot  %s", wj, gj)
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

// TestAPIWithoutStore: every API endpoint answers a JSON 503 when no store
// is attached.
func TestAPIWithoutStore(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", testPublisher(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/api/runs", "/api/runs/abc", "/api/compare?a=x&b=y", "/compare.svg?a=x&b=y"} {
		if code, ct, _ := getTyped(t, base+path); code != http.StatusServiceUnavailable || ct != "application/json" {
			t.Errorf("%s without store: code %d, Content-Type %q, want 503 and application/json", path, code, ct)
		}
	}
}

// TestAPIErrors: the API is read-only, and what it does not serve it
// refuses with the right code.
func TestAPIErrors(t *testing.T) {
	store, base := newTestServer(t)
	cfg := apiConfig("nbc", 0.3)
	record(t, store, cfg)

	// A write to any store endpoint answers 405 with a JSON error naming
	// the one write path.
	body, err := json.Marshal(apiConfig("nbc", 0.4))
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodPost, http.MethodDelete} {
		for _, path := range []string{"/api/runs", "/api/runs/" + cfg.Hash(), "/api/compare?a=nbc&b=ecube", "/compare.svg?a=nbc&b=ecube"} {
			req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var refusal struct{ Error string }
			derr := json.NewDecoder(resp.Body).Decode(&refusal)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet ||
				resp.Header.Get("Content-Type") != "application/json" || derr != nil || !strings.Contains(refusal.Error, "wormsim -store") {
				t.Errorf("%s %s: code %d, Allow %q, Content-Type %q, error %q (%v); want 405, GET, application/json and a pointer to wormsim -store",
					method, path, resp.StatusCode, resp.Header.Get("Allow"), resp.Header.Get("Content-Type"), refusal.Error, derr)
			}
		}
	}
	if n := store.Len(); n != 1 {
		t.Errorf("store holds %d records after the writes, want 1", n)
	}

	for _, c := range []struct {
		path string
		code int
	}{
		{"/api/runs/" + strings.Repeat("0", 64), http.StatusNotFound},
		{"/api/runs/" + cfg.Hash() + "/events", http.StatusNotFound},
		{"/api/compare", http.StatusBadRequest},
	} {
		if code, _ := get(t, base+c.path); code != c.code {
			t.Errorf("GET %s: code %d, want %d", c.path, code, c.code)
		}
	}
}

// TestAPIRefusesRetiredSwitching: a stored record of a switching technique
// the engine no longer implements is never served. Fetching it by hash
// answers 400 with core's own error, as core.RunCached refuses the same
// config on the same store, and the listing leaves it out while it keeps a
// servable record stored beside it.
func TestAPIRefusesRetiredSwitching(t *testing.T) {
	store, base := newTestServer(t)
	cfg := apiConfig("nbc", 0.3)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := cfg.Hash()
	if err := store.Store(kept, cfg.Canonical(), res); err != nil {
		t.Fatal(err)
	}
	cfg.Switching = "saf"
	if err := store.Store(cfg.Hash(), cfg.Canonical(), res); err != nil {
		t.Fatal(err)
	}
	want := cfg.Switching.Check()
	if want == nil {
		t.Fatal("saf switching passes core's admission check")
	}

	code, body := get(t, base+"/api/runs/"+cfg.Hash())
	var read struct{ Error string }
	if err := json.Unmarshal([]byte(body), &read); err != nil {
		t.Fatalf("GET: %v: %.200s", err, body)
	}
	if code != http.StatusBadRequest || read.Error != want.Error() {
		t.Errorf("GET of a stored saf record: code %d error %q, want 400 and %v", code, read.Error, want)
	}
	code, body = get(t, base+"/api/runs")
	if code != http.StatusOK || strings.Contains(body, cfg.Hash()) || !strings.Contains(body, kept) {
		t.Errorf("listing: code %d, want 200 with %s and without the saf record %s: %.300s", code, kept, cfg.Hash(), body)
	}

	cfg.Cache = store
	if _, hit, err := core.RunCached(cfg); hit || err == nil || err.Error() != read.Error {
		t.Errorf("RunCached on the same store: hit %v err %v, want the API's error %q", hit, err, read.Error)
	}
}

// TestMetricsRunStoreCounters: Listen attaches its store to /metrics, whose
// run-store counters then read the store's own values.
func TestMetricsRunStoreCounters(t *testing.T) {
	store, base := newTestServer(t)
	record(t, store, apiConfig("nbc", 0.3)) // a miss, then recorded
	record(t, store, apiConfig("nbc", 0.3)) // a hit
	_, body := get(t, base+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("wormsim_runstore_records %d\n", store.Len()),
		fmt.Sprintf("wormsim_runstore_hits_total %d\n", store.Hits()),
		fmt.Sprintf("wormsim_runstore_misses_total %d\n", store.Misses()),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
	if store.Len() != 1 || store.Hits() != 1 || store.Misses() != 1 {
		t.Errorf("store counters: %d records, %d hits, %d misses; want 1 of each", store.Len(), store.Hits(), store.Misses())
	}
}
