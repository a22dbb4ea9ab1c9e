// Package runstore is the simulator's persistent run store: every completed
// experiment, durable and addressable by the canonical hash of its
// configuration (core.Config.Hash), queryable and comparable forever.
//
// The storage format is an append-only, schema-versioned JSONL file
// (runs.jsonl): one Record per line, written atomically under a mutex and
// recovered on open by replaying the log. Open reads the log in one read,
// decodes its lines in parallel, then indexes them in one pass in file
// order, so the index and any error are the same however the decoding was
// scheduled. The first record per hash wins, on recovery as in Store. A
// crash mid-append leaves at most one truncated final line, which Open
// tolerates by truncating the file back to the last complete record;
// corruption anywhere earlier is an error naming the first bad line's
// offset, never a silent skip.
//
// The in-memory index (hash → *Record) makes Lookup O(1). Lookup and Store
// implement core.ResultCache and are the store's only read and write paths
// for runs: a Store attached to core.Config.Cache answers a repeated sweep
// without burning a single engine cycle, and the observatory's run API
// writes through the same Store. Which configs a record may be served for
// is core's decision (core.Config.Check), taken before any Lookup. Hits
// and Misses count both outcomes for the observatory's /metrics exposition.
//
// Determinism contract: nothing on the Lookup (cache-hit) path reads the
// wall clock or otherwise perturbs results — a cached Result is returned
// verbatim, bit-identical to re-simulating (TestSweepWarmStoreBitIdentical).
package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"wormsim/internal/core"
)

// Schema identifies the record layout; bump it on breaking changes so Open
// can refuse logs this package no longer understands.
const Schema = "wormsim-runstore/1"

// FileName is the log file inside the store directory.
const FileName = "runs.jsonl"

// Record is one stored experiment: the canonical config, its hash, and the
// full Result (TraceEvents excluded — they are json:"-" and deliberately
// not persisted). Seq is the append sequence number, monotonically
// increasing across the life of the log.
type Record struct {
	Schema string
	Seq    uint64
	Hash   string
	Config core.Config
	Result core.Result
}

// Store is a persistent, concurrency-safe run store. The zero value is not
// usable; call Open.
type Store struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	index map[string]*Record
	order []string // insertion order of unique hashes, for deterministic List
	seq   uint64

	hits   atomic.Int64
	misses atomic.Int64
}

// Open loads (or creates) the run store in dir. A truncated final line —
// the signature of a crash mid-append — is discarded and the file truncated
// back to the last complete record; any earlier undecodable or
// wrong-schema line is an error. Of several records under one hash the
// first is kept.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s := &Store{f: f, path: path, index: make(map[string]*Record)}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover replays the log into the index, handling the truncated tail. Only
// the decoding runs in parallel; every rule that depends on order is applied
// in the pass below, in file order.
func (s *Store) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := s.f.ReadAt(data, 0); err != nil {
		return fmt.Errorf("runstore: read %s: %w", s.path, err)
	}
	lines := splitLines(data)
	recs, errs := decodeLines(lines)
	var good int64
	needNewline := false
	for i, line := range lines {
		complete := line[len(line)-1] == '\n' // a final line without '\n' is incomplete
		if errs[i] != nil {
			if complete {
				return fmt.Errorf("runstore: %s: corrupt record at offset %d: %w", s.path, good, errs[i])
			}
			// Truncated tail from a crash mid-append: drop it.
			break
		}
		if recs[i].Schema != Schema {
			return fmt.Errorf("runstore: %s: record at offset %d has schema %q, this store speaks %q", s.path, good, recs[i].Schema, Schema)
		}
		// A decodable but unterminated final line lost only its trailing
		// newline in the crash; the record is whole. Keep it and restore
		// the terminator below so the next append starts a fresh line.
		needNewline = !complete
		s.insert(&recs[i])
		good += int64(len(line))
	}
	// Truncate away any discarded tail so the next append starts on a clean
	// line boundary.
	if int64(len(data)) > good {
		if err := s.f.Truncate(good); err != nil {
			return fmt.Errorf("runstore: truncate recovered log: %w", err)
		}
	}
	if _, err := s.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if needNewline {
		if _, err := s.f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("runstore: restore record terminator: %w", err)
		}
	}
	return nil
}

// splitLines cuts data after every '\n'. Each line keeps its terminator;
// only the last may lack one.
func splitLines(data []byte) [][]byte {
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if last := len(lines) - 1; len(lines[last]) == 0 {
		lines = lines[:last] // the empty piece after a final '\n', or an empty log
	}
	return lines
}

// decodeLines decodes every line on min(GOMAXPROCS, lines) goroutines and
// returns once all of them have finished. recs[i] and errs[i] belong to
// lines[i].
func decodeLines(lines [][]byte) (recs []Record, errs []error) {
	recs, errs = make([]Record, len(lines)), make([]error, len(lines))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(lines)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(lines) {
					return
				}
				errs[i] = json.Unmarshal(lines[i], &recs[i])
			}
		}()
	}
	wg.Wait()
	return recs, errs
}

// insert indexes rec and keeps seq ahead of everything seen. The first
// record per hash wins, as in Store: a later duplicate (two processes that
// appended the same run) is counted for seq and otherwise ignored.
func (s *Store) insert(rec *Record) {
	if rec.Seq >= s.seq {
		s.seq = rec.Seq + 1
	}
	if _, exists := s.index[rec.Hash]; exists {
		return
	}
	s.order = append(s.order, rec.Hash)
	s.index[rec.Hash] = rec
}

// Close releases the log file. Lookup keeps working from the in-memory
// index; Store calls fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Path returns the log file location.
func (s *Store) Path() string { return s.path }

// Lookup returns the Result stored under hash and counts the outcome in
// Hits/Misses. It is the core.ResultCache read side: nothing here reads a
// clock or mutates the record, so a hit is bit-identical to re-simulating.
// The Result shares its slices and pointers with the index: it is
// read-only, as are those of Get and List.
func (s *Store) Lookup(hash string) (core.Result, bool) {
	s.mu.Lock()
	rec, ok := s.index[hash]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1) //lint:allow purity (observability counter; never read back into a Result)
		return core.Result{}, false
	}
	s.hits.Add(1) //lint:allow purity (observability counter; never read back into a Result)
	return rec.Result, true
}

// Get returns the full record under hash without touching the hit/miss
// counters — the query path for the observatory API. The record's Result
// is read-only (see Lookup).
func (s *Store) Get(hash string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.index[hash]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// Store appends a completed run to the log and indexes it. A hash already
// present is a no-op (simulations are deterministic, so the stored record
// is already the record). It is the core.ResultCache write side and the
// store's only write path.
func (s *Store) Store(hash string, cfg core.Config, r core.Result) error {
	r.TraceEvents = nil
	rec := Record{Schema: Schema, Hash: hash, Config: cfg.Canonical(), Result: r}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.index[hash]; exists {
		return nil
	}
	if s.f == nil {
		return fmt.Errorf("runstore: store is closed")
	}
	rec.Seq = s.seq
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runstore: encode record: %w", err)
	}
	line = append(line, '\n')
	if _, err := s.f.Write(line); err != nil { //lint:allow purity (append-only persistence of a finished Result; never read back within a run)
		return fmt.Errorf("runstore: append %s: %w", s.path, err)
	}
	s.insert(&rec)
	return nil
}

// Len reports the number of distinct runs stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// List returns copies of every record in first-stored order — a
// deterministic enumeration for the API's listing and comparison queries.
// The copies are shallow: their Results are read-only (see Lookup).
func (s *Store) List() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.order))
	for _, h := range s.order {
		out = append(out, *s.index[h])
	}
	return out
}

// Hits reports cache-hit lookups since Open.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses reports cache-miss lookups since Open.
func (s *Store) Misses() int64 { return s.misses.Load() }
