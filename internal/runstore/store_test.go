package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wormsim/internal/core"
)

func testConfig(load float64) core.Config {
	return core.Config{
		K: 4, N: 2, Algorithm: "nbc", Pattern: "uniform", OfferedLoad: load,
		Seed: 11, WarmupCycles: 200, SampleCycles: 100, GapCycles: 50,
		MinSamples: 2, MaxSamples: 3,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cfg := testConfig(0.3)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hash := cfg.Hash()
	if err := s.Store(hash, cfg.Canonical(), res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(hash)
	if !ok {
		t.Fatal("stored run not found")
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("lookup diverged from stored result:\nwant %+v\ngot  %+v", res, got)
	}
	if s.Hits() != 1 || s.Misses() != 0 {
		t.Errorf("counters hits=%d misses=%d, want 1/0", s.Hits(), s.Misses())
	}
	if _, ok := s.Lookup("no-such-hash"); ok {
		t.Error("lookup of unknown hash succeeded")
	}
	if s.Misses() != 1 {
		t.Errorf("miss not counted: %d", s.Misses())
	}

	rec, ok := s.Get(hash)
	if !ok || rec.Hash != hash || rec.Schema != Schema {
		t.Errorf("Get: %+v", rec)
	}
	if rec.Config.Hash() != hash {
		t.Error("stored config does not re-hash to its key")
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(0.2)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store(cfg.Hash(), cfg.Canonical(), res); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Lookup(cfg.Hash())
	if !ok {
		t.Fatal("record lost across reopen")
	}
	// Bit-identity across the persistence round trip, at the JSON level the
	// store actually speaks.
	want, _ := json.Marshal(res)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Errorf("result not byte-identical across reopen:\nwant %s\ngot  %s", want, have)
	}
}

// TestRecoverTruncatedTail simulates a crash mid-append: a partial final
// line must be discarded, everything before it preserved, and the store
// writable afterwards.
func TestRecoverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0.2, 0.4} {
		cfg := testConfig(load)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Store(cfg.Hash(), cfg.Canonical(), res); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the last record.
	cut := len(data) - 37
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("recovered %d records, want 1 (tail dropped)", s2.Len())
	}
	if _, ok := s2.Lookup(testConfig(0.2).Hash()); !ok {
		t.Error("first record lost in recovery")
	}
	// The store must be appendable again, and a third open sees everything.
	cfg := testConfig(0.6)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Store(cfg.Hash(), cfg.Canonical(), res); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Errorf("after recovery+append reopen sees %d records, want 2", s3.Len())
	}
}

// TestRecoverMissingNewline: the record survived the crash whole but its
// terminator did not; recovery keeps it and restores the line boundary.
func TestRecoverMissingNewline(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(0.2)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store(cfg.Hash(), cfg.Canonical(), res); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", s2.Len())
	}
	cfg2 := testConfig(0.4)
	res2, err := core.Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Store(cfg2.Hash(), cfg2.Canonical(), res2); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("log corrupted by append after newline-less recovery: %v", err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Errorf("reopen sees %d records, want 2", s3.Len())
	}
}

func TestCorruptMiddleIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(0.2)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store(cfg.Hash(), cfg.Canonical(), res); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, FileName)
	data, _ := os.ReadFile(path)
	data = append([]byte("{garbage\n"), data...)
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Errorf("mid-file corruption not reported: %v", err)
	}
}

func TestSchemaMismatchIsAnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, []byte(`{"Schema":"wormsim-runstore/999","Hash":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not reported: %v", err)
	}
}

func recHashes(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Hash[:8]
	}
	return out
}

func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfgs := make([]core.Config, 8)
	ress := make([]core.Result, 8)
	for i := range cfgs {
		cfgs[i] = testConfig(0.1 + 0.05*float64(i))
		r, err := core.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		ress[i] = r
	}
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Store(cfgs[i].Hash(), cfgs[i].Canonical(), ress[i]); err != nil {
				t.Error(err)
			}
			s.Lookup(cfgs[i].Hash())
		}(i)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("store has %d records, want 8", s.Len())
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("log corrupted by concurrent appends: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 8 {
		t.Errorf("reopen sees %d records, want 8", s2.Len())
	}
}
