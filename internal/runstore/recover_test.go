package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testLog is a log written before the per-channel vectors became
// stats.Counts: two bare records around an observed one (telemetry and
// forensics attached), from 4-ary 2-cube runs.
func testLog(tb testing.TB) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", FileName))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// openLog writes data as the log in dir and opens it with GOMAXPROCS set to
// procs, returning the store's listing.
func openLog(tb testing.TB, dir string, data []byte, procs int) ([]Record, error) {
	tb.Helper()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		tb.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.List(), nil
}

func decodeLine(tb testing.TB, line []byte) Record {
	tb.Helper()
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		tb.Fatal(err)
	}
	return rec
}

func encodeLine(tb testing.TB, rec Record) []byte {
	tb.Helper()
	line, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return append(line, '\n')
}

// TestOlderLogRoundTrips: every record of a log written with the vectors
// typed []int64 opens and re-encodes to exactly the bytes on disk, so the
// decode loses nothing (nil against empty included) and Store still writes
// the same bytes.
func TestOlderLogRoundTrips(t *testing.T) {
	data := testLog(t)
	list, err := openLog(t, t.TempDir(), data, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(list) != len(lines) {
		t.Fatalf("opened %d records from %d lines", len(list), len(lines))
	}
	for i, rec := range list {
		if got := encodeLine(t, rec); !bytes.Equal(got, lines[i]) {
			t.Errorf("record %d re-encodes differently:\nwant %s\ngot  %s", i, lines[i], got)
		}
	}
	if list[1].Result.Forensics == nil || len(list[1].Result.Telemetry.ChannelBusy) == 0 {
		t.Error("the observed record lost its summaries")
	}
}

// TestDuplicateHashFirstRecordWins: when two processes appended the same
// hash, recovery keeps the first record, as Put does, and still moves Seq
// past the second.
func TestDuplicateHashFirstRecordWins(t *testing.T) {
	lines := splitLines(testLog(t))
	first := decodeLine(t, lines[0])
	second := decodeLine(t, lines[0])
	second.Result.Cycles++
	second.Seq = 7
	// Logs written before Record lost its PhaseShares field still carry it
	// on some lines; such a line opens, and the field is dropped.
	older := decodeLine(t, lines[1])
	legacy := append(bytes.TrimSuffix(lines[1], []byte("}\n")), []byte(`,"PhaseShares":{"transfer":0.75}}`+"\n")...)
	data := bytes.Join([][]byte{encodeLine(t, first), legacy, encodeLine(t, second)}, nil)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, _ := s.Get(first.Hash); !reflect.DeepEqual(got, first) {
		t.Errorf("Get returned the later record: Cycles %d Seq %d, want %d and %d", got.Result.Cycles, got.Seq, first.Result.Cycles, first.Seq)
	}
	if got, _ := s.Lookup(first.Hash); !reflect.DeepEqual(got, first.Result) {
		t.Errorf("Lookup returned the later record: Cycles %d, want %d", got.Cycles, first.Result.Cycles)
	}
	if got, ok := s.Get(older.Hash); !ok || !reflect.DeepEqual(got, older) {
		t.Errorf("the line carrying PhaseShares: Get = %v, %v, want its record", got.Seq, ok)
	}
	list := s.List()
	if len(list) != 2 || !reflect.DeepEqual(list[0], first) {
		t.Errorf("List = %v, want the first record then one other", recHashes(list))
	}
	rec := decodeLine(t, lines[2])
	if err := s.Store(rec.Hash, rec.Config, rec.Result); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(rec.Hash); got.Seq != second.Seq+1 {
		t.Errorf("append after a duplicate got Seq %d, want %d", got.Seq, second.Seq+1)
	}
}

// TestCorruptLinesNameFirstOffset: with two corrupt lines the error names
// the first, whatever order the parallel decode finished in.
func TestCorruptLinesNameFirstOffset(t *testing.T) {
	lines := splitLines(testLog(t))
	data := bytes.Join([][]byte{lines[0], []byte("{garbage\n"), lines[1], []byte("{more garbage\n"), lines[2]}, nil)
	want := fmt.Sprintf("corrupt record at offset %d:", len(lines[0]))
	for _, procs := range []int{1, 4} {
		_, err := openLog(t, t.TempDir(), data, procs)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("GOMAXPROCS=%d: error %v, want one naming %q", procs, err, want)
		}
	}
}

// FuzzOpen feeds Open truncated, bit-flipped and duplicate-hash logs built
// from real records. Open must return an error or a store, never panic; the
// outcome must not depend on GOMAXPROCS; and every record the store holds
// must re-encode to the first line carrying its hash. That line is compared
// after its own decode and re-encode: encoding/json matches field names
// without regard to case and skips unknown ones, so a mutated line can
// decode without being in the form Store writes. For lines Store wrote
// (TestOlderLogRoundTrips) the two are the same bytes.
func FuzzOpen(f *testing.F) {
	data := testLog(f)
	lines := splitLines(data)
	flipped := bytes.Clone(data)
	flipped[len(lines[0])/2] ^= 0x04
	dup := append(bytes.Clone(data), bytes.Replace(lines[0], []byte(`"Seq":0`), []byte(`"Seq":9`), 1)...)
	f.Add(data)
	f.Add(data[:len(data)-1])               // the last record lost its newline
	f.Add(data[:len(data)-len(lines[2])/2]) // a crash mid-append
	f.Add(flipped)                          // corruption in the first record
	f.Add(dup)                              // a later record under the first one's hash
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		one, err1 := openLog(t, dir, data, 1)
		four, err4 := openLog(t, dir, data, 4)
		if fmt.Sprint(err1) != fmt.Sprint(err4) {
			t.Fatalf("outcome depends on GOMAXPROCS:\n 1: %v\n 4: %v", err1, err4)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(one, four) {
			t.Fatalf("index depends on GOMAXPROCS: %d records against %d", len(one), len(four))
		}
		first := make(map[string][]byte)
		for _, line := range splitLines(data) {
			var rec Record
			if json.Unmarshal(line, &rec) != nil {
				break // only a dropped tail can fail once Open succeeded
			}
			if _, seen := first[rec.Hash]; !seen {
				first[rec.Hash] = encodeLine(t, rec)
			}
		}
		for _, rec := range one {
			if got := encodeLine(t, rec); !bytes.Equal(got, first[rec.Hash]) {
				t.Errorf("hit %q is not the first line with its hash:\nwant %s\ngot  %s", rec.Hash, first[rec.Hash], got)
			}
		}
	})
}
