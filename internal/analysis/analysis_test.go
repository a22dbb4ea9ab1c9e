package analysis

import (
	"math"
	"strings"
	"testing"

	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

func TestBalanceUniformLoads(t *testing.T) {
	lb := Balance([]int64{10, 10, 10, 10})
	if lb.CV != 0 || lb.Gini != 0 {
		t.Errorf("uniform loads: cv=%v gini=%v, want 0", lb.CV, lb.Gini)
	}
	if lb.MaxOverMean != 1 || lb.Mean != 10 || lb.Min != 10 || lb.Max != 10 {
		t.Errorf("uniform loads summary wrong: %+v", lb)
	}
	if lb.N != 4 {
		t.Errorf("N = %d", lb.N)
	}
}

func TestBalanceSkewedLoads(t *testing.T) {
	lb := Balance([]int64{0, 0, 0, 100})
	if lb.Gini < 0.7 {
		t.Errorf("one-carrier gini = %v, want close to 0.75", lb.Gini)
	}
	if lb.MaxOverMean != 4 {
		t.Errorf("max/mean = %v, want 4", lb.MaxOverMean)
	}
	if math.Abs(lb.Gini-0.75) > 1e-9 {
		t.Errorf("gini = %v, want exactly 0.75 for this distribution", lb.Gini)
	}
}

func TestBalanceEdgeCases(t *testing.T) {
	if lb := Balance(nil); lb.N != 0 {
		t.Error("empty input should be zero value")
	}
	lb := Balance([]int64{0, 0})
	if lb.Gini != 0 || lb.CV != 0 || lb.Mean != 0 {
		t.Errorf("all-zero input: %+v", lb)
	}
	if s := Balance([]int64{1, 2, 3}).String(); !strings.Contains(s, "gini=") {
		t.Errorf("String() = %q", s)
	}
}

func TestGiniScaleInvariance(t *testing.T) {
	a := Balance([]int64{1, 2, 3, 4})
	b := Balance([]int64{10, 20, 30, 40})
	if math.Abs(a.Gini-b.Gini) > 1e-12 {
		t.Errorf("gini not scale invariant: %v vs %v", a.Gini, b.Gini)
	}
}

// TestChannelBalanceNlastSkew reproduces the paper's sec. 3.4 claim: the
// north-last algorithm skews even uniform traffic across physical channels,
// compared against fully adaptive nbc on the same workload.
func TestChannelBalanceNlastSkew(t *testing.T) {
	run := func(algName string) LoadBalance {
		g := topology.NewTorus(8, 2)
		alg, err := routing.Get(algName)
		if err != nil {
			t.Fatal(err)
		}
		wl := traffic.NewBernoulli(g, traffic.NewUniform(g), 0.02, 3)
		n, err := network.New(network.Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(6000); err != nil {
			t.Fatal(err)
		}
		return ChannelBalance(g, n.ChannelFlitCounts())
	}
	nlast := run("nlast")
	nbc := run("nbc")
	if nlast.CV <= nbc.CV {
		t.Errorf("nlast channel CV %.3f should exceed nbc %.3f (the paper's skew claim)", nlast.CV, nbc.CV)
	}
	if nbc.N != topology.NewTorus(8, 2).NumChannels() {
		t.Errorf("balance over %d channels, want %d", nbc.N, topology.NewTorus(8, 2).NumChannels())
	}
}

func TestChannelBalanceExcludesMeshBoundary(t *testing.T) {
	g := topology.NewMesh(4, 2)
	counts := make([]int64, g.ChannelSlots())
	lb := ChannelBalance(g, counts)
	if lb.N != g.NumChannels() {
		t.Errorf("mesh balance over %d carriers, want %d", lb.N, g.NumChannels())
	}
}
