package network

import (
	"fmt"
	"slices"
	"testing"

	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// arrivalLog is a traffic.Bernoulli that records every arrival the engine
// draws from it as "cycle src dst".
type arrivalLog struct {
	*traffic.Bernoulli
	log []string
}

func (a *arrivalLog) Arrivals(cycle int64, dst []traffic.Arrival) []traffic.Arrival {
	n := len(dst)
	dst = a.Bernoulli.Arrivals(cycle, dst)
	for _, arr := range dst[n:] {
		a.log = append(a.log, fmt.Sprintf("%d %d %d", cycle, arr.Src, arr.Dst))
	}
	return dst
}

// arrivalStream runs alg past saturation on an 8x8 torus for 600 cycles at
// seed, reseeding mid-run the way core reseeds between sampling periods, and
// returns the arrivals the engine drew and the messages congestion control
// refused.
func arrivalStream(t *testing.T, name string, seed uint64) (log []string, dropped int64) {
	t.Helper()
	alg, err := routing.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	g := topology.NewTorus(8, 2)
	wl := &arrivalLog{Bernoulli: traffic.NewBernoulli(g, traffic.NewUniform(g), 0.1, seed)}
	n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8, CCLimit: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 600; c++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		if c == 300 {
			n.Reseed(seed + 0x9e3779b97f4a7c15)
		}
	}
	return wl.log, n.Total().Dropped
}

// TestArrivalStreamIndependentOfAlgorithm: at one seed every algorithm is
// offered the same messages at the same cycles, before and after a mid-run
// reseed, however differently it routes and backs up. The paper's orderings
// compare algorithms on one seed, so each comparison is paired: the
// difference between two curves is routing, not traffic. A second seed must
// change the stream, or the check would pass vacuously.
func TestArrivalStreamIndependentOfAlgorithm(t *testing.T) {
	const seed = 0xa77
	want, _ := arrivalStream(t, "ecube", seed)
	if len(want) == 0 {
		t.Fatal("no arrivals drawn")
	}
	for _, name := range []string{"ecube", "nbc", "phop"} {
		got, dropped := arrivalStream(t, name, seed)
		if dropped == 0 {
			t.Errorf("%s: congestion control refused nothing; the run is not past saturation", name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s draws a different arrival stream from ecube at seed %#x%s", name, seed, firstDiff(got, want))
		}
	}
	if other, _ := arrivalStream(t, "ecube", seed+1); slices.Equal(other, want) {
		t.Error("seeds differing by one drew the same arrival stream")
	}
}
