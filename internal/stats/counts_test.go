package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCountsMatchesSliceDecode: a Counts field decodes every input exactly
// as a []int64 field does — both fail or both succeed with DeepEqual values,
// nil and empty told apart — and encodes back to the same bytes.
func FuzzCountsMatchesSliceDecode(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[0]`, `[-0]`, `[1,-2,3]`, `[-17,0,42]`,
		`[9223372036854775807]`, `[-9223372036854775808]`,
		`[9223372036854775808]`, `[-9223372036854775809]`, `[99999999999999999999]`,
		`[1.5]`, `[1e3]`, `[01]`, `[1,]`, `[,1]`, `[-]`, `[1 ]`, ` [1, 2]`, "[\n1]",
		`[[1]]`, `[true]`, `["1"]`, `{}`, `"x"`, `7`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		doc := []byte(`{"C":` + in + `}`)
		var got struct{ C Counts }
		var want struct{ C []int64 }
		errGot, errWant := json.Unmarshal(doc, &got), json.Unmarshal(doc, &want)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%s: Counts error %v, []int64 error %v", in, errGot, errWant)
		}
		if errGot != nil {
			return
		}
		if !reflect.DeepEqual([]int64(got.C), want.C) {
			t.Fatalf("%s: Counts decoded %#v, []int64 %#v", in, []int64(got.C), want.C)
		}
		encGot, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		encWant, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encGot, encWant) {
			t.Fatalf("%s: Counts encodes %s, []int64 %s", in, encGot, encWant)
		}
	})
}

// TestCountsDirectCall: called directly rather than by a decoder that has
// already checked the document, UnmarshalJSON still accepts exactly what
// encoding/json does.
func TestCountsDirectCall(t *testing.T) {
	for _, in := range []string{`null`, `[]`, `[3,-4]`, `[01]`, `[-01]`, `[1,2`, `[1]]`, `[1]x`, `nul`, ``, `[`} {
		var got Counts
		var want []int64
		errGot, errWant := got.UnmarshalJSON([]byte(in)), json.Unmarshal([]byte(in), &want)
		if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual([]int64(got), want) {
			t.Errorf("%q: Counts %#v (%v), []int64 %#v (%v)", in, []int64(got), errGot, want, errWant)
		}
	}
}

// FuzzCumBucketsMatchesSliceDecode: a CumBuckets field decodes every input
// exactly as a []CumBucket field does, on the terms of
// FuzzCountsMatchesSliceDecode.
func FuzzCumBucketsMatchesSliceDecode(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, `[{"UpperBound":8,"Count":3}]`,
		`[{"UpperBound":0,"Count":0},{"UpperBound":10.5,"Count":-2},{"UpperBound":1.25e+21,"Count":9223372036854775807}]`,
		`[{"UpperBound":-0,"Count":-0}]`, `[{"UpperBound":1e400,"Count":1}]`, `[{"UpperBound":1E-7,"Count":1}]`,
		`[{"UpperBound":+1,"Count":1}]`, `[{"UpperBound":.5,"Count":1}]`, `[{"UpperBound":1.,"Count":1}]`,
		`[{"UpperBound":01,"Count":1}]`, `[{"UpperBound":NaN,"Count":1}]`, `[{"UpperBound":1e,"Count":1}]`,
		`[{"UpperBound":1,"Count":1.5}]`, `[{"UpperBound":1,"Count":01}]`, `[{"UpperBound":1,"Count":9223372036854775808}]`,
		`[{"Count":1,"UpperBound":2}]`, `[{"UpperBound":1,"UpperBound":2,"Count":3}]`, `[{"UpperBound":1,"Count":2,"Count":3}]`,
		`[{"upperbound":1,"count":2}]`, `[{"UpperBound":1}]`, `[{}]`, `[{"UpperBound":1,"Count":2,"X":3}]`,
		`[{"UpperBound":1,"Count":2},]`, `[{"UpperBound":1,"Count":2}{"UpperBound":1,"Count":2}]`,
		`[{"UpperBound": 1,"Count":2}]`, ` [{"UpperBound":1,"Count":2}]`, "[\n{\"UpperBound\":1,\"Count\":2}]",
		`[{"UpperBound":"1","Count":2}]`, `[null]`, `[[1]]`, `{}`, `"x"`, `7`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		doc := []byte(`{"B":` + in + `}`)
		var got struct{ B CumBuckets }
		var want struct{ B []CumBucket }
		errGot, errWant := json.Unmarshal(doc, &got), json.Unmarshal(doc, &want)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%s: CumBuckets error %v, []CumBucket error %v", in, errGot, errWant)
		}
		if errGot != nil {
			return
		}
		if !reflect.DeepEqual([]CumBucket(got.B), want.B) {
			t.Fatalf("%s: CumBuckets decoded %#v, []CumBucket %#v", in, []CumBucket(got.B), want.B)
		}
		encGot, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		encWant, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encGot, encWant) {
			t.Fatalf("%s: CumBuckets encodes %s, []CumBucket %s", in, encGot, encWant)
		}
	})
}

// TestCumBucketsDirectCall is TestCountsDirectCall for CumBuckets.
func TestCumBucketsDirectCall(t *testing.T) {
	for _, in := range []string{`null`, `[]`, `[{"UpperBound":1,"Count":2}]`, `[{"UpperBound":1,"Count":2}`,
		`[{"UpperBound":1,"Count":2}]]`, `[{"UpperBound":1,"Count":2}]x`, `[{"UpperBound":1,"Count":2`, `[{"UpperBound":1,"Count":}]`,
		`[{"UpperBound":1,"Count":-}]`, `nul`, ``, `[`,
		`[{"UpperBound":-,"Count":2}]`, `[{"UpperBound":+1,"Count":2}]`, `[{"UpperBound":.5,"Count":2}]`,
		`[{"UpperBound":1.,"Count":2}]`, `[{"UpperBound":01,"Count":2}]`, `[{"UpperBound":NaN,"Count":2}]`,
		`[{"UpperBound":Inf,"Count":2}]`, `[{"UpperBound":0x10,"Count":2}]`, `[{"UpperBound":1_0,"Count":2}]`,
		`[{"UpperBound": 1,"Count":2}]`, `[{"UpperBound":1e+,"Count":2}]`, `[{"UpperBound":-0.0e-0,"Count":2}]`} {
		var got CumBuckets
		var want []CumBucket
		errGot, errWant := got.UnmarshalJSON([]byte(in)), json.Unmarshal([]byte(in), &want)
		if (errGot == nil) != (errWant == nil) || !reflect.DeepEqual([]CumBucket(got), want) {
			t.Errorf("%q: CumBuckets %#v (%v), []CumBucket %#v (%v)", in, []CumBucket(got), errGot, want, errWant)
		}
	}
}

// TestCumulativeTakesFastPath: what Histogram.Cumulative returns, as
// encoding/json writes it, decodes on the fast path to the same buckets —
// empty and one-bucket histograms and counts past 2^53 included.
func TestCumulativeTakesFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	hists := []*Histogram{{}, {buckets: []int64{7}}, {buckets: []int64{math.MaxInt64}}, {buckets: []int64{1 << 60, 3, 0, 1 << 61}}}
	for i := 0; i < 200; i++ {
		h := &Histogram{}
		for n := r.Intn(300); n > 0; n-- {
			h.Add(r.ExpFloat64() * float64(r.Intn(5000)))
		}
		hists = append(hists, h)
	}
	for _, h := range hists {
		want := h.Cumulative()
		enc, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := parseCumBuckets(enc)
		if !ok || !reflect.DeepEqual([]CumBucket(got), want) {
			t.Fatalf("%s: fast path %v, decoded %v, want %v", enc, ok, got, want)
		}
	}
}
