package stats

import (
	"bytes"
	"encoding/json"
	"math"
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
	if string(b) == "null" {
		return nil, true
	}
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return nil, false
	}
	body := b[1 : len(b)-1]
	if len(body) == 0 {
		return Counts{}, true // encoding/json decodes [] to an empty, non-nil slice
	}
	out := make(Counts, 0, 1+bytes.Count(body, []byte{','}))
	for i := 0; ; i++ {
		neg := i < len(body) && body[i] == '-'
		if neg {
			i++
		}
		start := i
		var u uint64
		for ; i < len(body) && '0' <= body[i] && body[i] <= '9'; i++ {
			u = u*10 + uint64(body[i]-'0')
		}
		// At most 19 digits keeps u exact (10^19 < 2^64); the bound below
		// then catches the values that do not fit an int64.
		n := i - start
		if n == 0 || n > 19 || (n > 1 && body[start] == '0') {
			return nil, false
		}
		switch {
		case !neg && u <= math.MaxInt64:
			out = append(out, int64(u))
		case neg && u <= 1<<63:
			out = append(out, -int64(u))
		default:
			return nil, false
		}
		if i == len(body) {
			return out, true
		}
		if body[i] != ',' {
			return nil, false
		}
	}
}
