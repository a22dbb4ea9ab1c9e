package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// Counts is a per-channel-slot count vector (flits moved, busy cycles, blame
// mass). It encodes exactly as []int64 — there is no MarshalJSON — and
// decodes the compact form encoding/json writes without reflection: a
// 16-ary 2-cube has 1,024 channel slots, and decoding such vectors element
// by element through reflection is most of what it costs to open a run
// store. Anything outside that form is handed to encoding/json as a
// []int64, so what Counts accepts, and how it fails, is encoding/json's.
type Counts []int64

// UnmarshalJSON decodes null, [] or a bracketed, comma-separated list of
// canonical integers directly and everything else through encoding/json.
func (c *Counts) UnmarshalJSON(b []byte) error {
	if v, ok := parseCounts(b); ok {
		*c = v
		return nil
	}
	return json.Unmarshal(b, (*[]int64)(c))
}

// parseCounts is the fast path of UnmarshalJSON. It reports false on any
// input it does not fully recognise: whitespace, fractions, exponents,
// leading zeros, overflow or anything that is not an array of integers.
func parseCounts(b []byte) (Counts, bool) {
	body, ok := arrayBody(b)
	if !ok || body == nil {
		return nil, ok
	}
	out := make(Counts, 0, 1+bytes.Count(body, []byte{','}))
	if len(body) == 0 {
		return out, true
	}
	for i := 0; ; i++ {
		v, next, ok := parseInt(body, i)
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if i = next; i == len(body) {
			return out, true
		}
		if body[i] != ',' {
			return nil, false
		}
	}
}

// CumBuckets is a cumulative histogram in Prometheus form: every observed
// run record carries one per latency-anatomy component and routing class,
// about 14 KB of its JSON on a 16-ary 2-cube. Like Counts it encodes
// exactly as []CumBucket and decodes the compact form encoding/json writes
// — keys in declaration order, no whitespace — without reflection, handing
// anything else to encoding/json as a []CumBucket.
type CumBuckets []CumBucket

// UnmarshalJSON decodes null, [] or a bracketed, comma-separated list of
// {"UpperBound":<number>,"Count":<canonical integer>} objects directly and
// everything else through encoding/json.
func (c *CumBuckets) UnmarshalJSON(b []byte) error {
	if v, ok := parseCumBuckets(b); ok {
		*c = v
		return nil
	}
	return json.Unmarshal(b, (*[]CumBucket)(c))
}

// parseCumBuckets is the fast path of CumBuckets.UnmarshalJSON. It reports
// false on any input it does not fully recognise: whitespace, other keys or
// key order, a bound outside the JSON number grammar or the float64 range,
// a count parseCounts would reject.
func parseCumBuckets(b []byte) (CumBuckets, bool) {
	const bound, count = `{"UpperBound":`, `,"Count":`
	body, ok := arrayBody(b)
	if !ok || body == nil {
		return nil, ok
	}
	out := make(CumBuckets, 0, bytes.Count(body, []byte{'{'}))
	if len(body) == 0 {
		return out, true
	}
	for i := 0; ; i++ {
		if !bytes.HasPrefix(body[i:], []byte(bound)) {
			return nil, false
		}
		i += len(bound)
		end := numberEnd(body, i)
		if end < 0 {
			return nil, false
		}
		ub, err := strconv.ParseFloat(string(body[i:end]), 64)
		if err != nil || !bytes.HasPrefix(body[end:], []byte(count)) {
			return nil, false
		}
		n, next, ok := parseInt(body, end+len(count))
		if !ok || next == len(body) || body[next] != '}' {
			return nil, false
		}
		out = append(out, CumBucket{UpperBound: ub, Count: n})
		if i = next + 1; i == len(body) {
			return out, true
		}
		if body[i] != ',' {
			return nil, false
		}
	}
}

// arrayBody returns what lies between the brackets of a JSON array, and
// nil with true for null. An empty array yields an empty, non-nil body: the
// callers decode it to an empty, non-nil slice, as encoding/json does.
func arrayBody(b []byte) ([]byte, bool) {
	if string(b) == "null" {
		return nil, true
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return nil, false
	}
	return b[1 : len(b)-1], true
}

// parseInt reads the canonical integer that starts at b[i] — an optional
// minus, then 1 to 19 digits with no leading zero — and returns it with the
// index just past it. It reports false when there is none or it overflows
// an int64.
func parseInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	limit := uint64(math.MaxInt64)
	if neg {
		i++
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	// At most 19 digits keeps u exact (10^19 < 2^64); limit then catches
	// the values that do not fit an int64.
	n := i - start
	if n == 0 || n > 19 || (n > 1 && b[start] == '0') || u > limit {
		return 0, i, false
	}
	if neg {
		u = -u
	}
	return int64(u), i, true
}

// numberEnd returns the index just past the JSON number that starts at
// b[i], or -1 when none does: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func numberEnd(b []byte, i int) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}
