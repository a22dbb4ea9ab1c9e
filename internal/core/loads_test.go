package core

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestParseLoadsRange: a range expands to exactly the loads its list form
// parses to — upper bound included, no drift from adding the step up — so
// a range point and the same load given alone hash alike.
func TestParseLoadsRange(t *testing.T) {
	for _, c := range []struct{ rng, list string }{
		{"0.1:0.5:0.2", "0.1,0.3,0.5"},
		{"0.1:1.0:0.1", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"},
		{"0:0.3:0.05", "0,0.05,0.1,0.15,0.2,0.25,0.3"},
		{"0.2:0.4:0.1", "0.2,0.3,0.4"},
		{"1e-1:3e-1:1e-1", "0.1,0.2,0.3"},
	} {
		got, err := ParseLoads(c.rng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ParseLoads(c.list)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("ParseLoads(%q) = %v, want %v (the list %q)", c.rng, got, want, c.list)
		}
	}
}

func TestParseLoadsList(t *testing.T) {
	loads, err := ParseLoads("0.25, 0.5,0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 3 || loads[0] != 0.25 || loads[2] != 0.9 {
		t.Errorf("loads = %v", loads)
	}
}

func TestParseLoadsErrors(t *testing.T) {
	for _, bad := range []string{"0.1:0.5", "a:b:c", "0.5:0.1:0.1", "0.1:0.5:0", "x,y", "", "0:1:NaN", "0:1:1e-12"} {
		if _, err := ParseLoads(bad); err == nil {
			t.Errorf("ParseLoads(%q) succeeded", bad)
		}
	}
	// A tiny step is refused up front, by a bound the error names.
	if _, err := ParseLoads("0:1:1e-12"); err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxLoadPoints)) {
		t.Errorf("ParseLoads(0:1:1e-12) = %v, want an error naming the %d-point limit", err, maxLoadPoints)
	}
}
