package core_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"wormsim/internal/core"
	"wormsim/internal/observatory"
	"wormsim/internal/runstore"
)

// TestSchedulerFIFO: the observatory API, the one caller that submits runs
// over time, runs them in submission order. On one worker a slow first run
// holds the worker while five quick ones queue behind it; Close waits for
// all six, and the store's append sequence must follow the submissions.
func TestSchedulerFIFO(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	api := observatory.NewAPI(store, nil, 1)
	srv, err := observatory.Listen("127.0.0.1:0", observatory.NewPublisher(), api)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var hashes []string
	for i := range 6 {
		cfg := core.Config{K: 4, N: 2, Algorithm: "nbc", OfferedLoad: 0.3, Seed: uint64(1 + i),
			WarmupCycles: 200, SampleCycles: 100, GapCycles: 50, MinSamples: 2, MaxSamples: 2}
		if i == 0 {
			cfg.K, cfg.WarmupCycles = 8, 20000
		}
		body, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+srv.Addr()+"/api/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: code %d, want 202", i, resp.StatusCode)
		}
		hashes = append(hashes, cfg.Hash())
	}
	api.Close()

	for i, h := range hashes {
		rec, ok := store.Get(h)
		switch {
		case !ok:
			t.Fatalf("submission %d never reached the store", i)
		case rec.Seq != uint64(i):
			t.Errorf("submission %d stored with seq %d, want %d (runs must finish in submission order)", i, rec.Seq, i)
		}
	}
}
