package stats

import (
	"bytes"
	"encoding/json"
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
