package core

import (
	"math"
	"strings"
	"testing"
)

// quick returns a config with short methodology windows for tests.
func quick(alg string) Config {
	return Config{
		K: 8, N: 2,
		Algorithm:    alg,
		OfferedLoad:  0.3,
		Seed:         5,
		WarmupCycles: 500,
		SampleCycles: 500,
		GapCycles:    100,
		MaxSamples:   4,
	}
}

func TestApplyDefaultsMatchesPaperSetup(t *testing.T) {
	var c Config
	c.ApplyDefaults()
	if c.K != 16 || c.N != 2 || c.MsgLen != 16 {
		t.Errorf("paper defaults wrong: %+v", c)
	}
	if c.Algorithm != "ecube" || c.Pattern != "uniform" || c.Switching != Wormhole {
		t.Errorf("default identity wrong: %+v", c)
	}
	if c.MinSamples != 3 || c.MaxSamples != 12 || c.Tolerance != 0.05 {
		t.Errorf("convergence defaults wrong: %+v", c)
	}
	vct := Config{Switching: CutThrough}
	vct.ApplyDefaults()
	if vct.BufDepth != vct.MsgLen {
		t.Errorf("vct should force BufDepth=MsgLen, got %d", vct.BufDepth)
	}
	off := Config{CCLimit: -1, InjectionPorts: -1}
	off.ApplyDefaults()
	if off.CCLimit != 0 || off.InjectionPorts != 0 {
		t.Errorf("negative knobs should disable: %+v", off)
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(quick("phop"))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency <= 0 {
		t.Errorf("latency %v", res.AvgLatency)
	}
	if res.Throughput <= 0 || res.Throughput > 1 {
		t.Errorf("throughput %v", res.Throughput)
	}
	if res.Samples < 3 {
		t.Errorf("samples %d < MinSamples", res.Samples)
	}
	if res.Delivered == 0 || res.Generated < res.Delivered {
		t.Errorf("accounting: %+v", res)
	}
	if res.Algorithm != "phop" || res.Pattern != "uniform" || res.Switching != Wormhole {
		t.Errorf("identity echo wrong: %+v", res)
	}
	if res.Deadlocked {
		t.Error("unexpected deadlock")
	}
	if !strings.Contains(res.String(), "phop") {
		t.Errorf("String() = %q", res.String())
	}
}

// TestInjectionRateDerivation: eq. (4) backwards — the derived lambda must
// reproduce the offered load.
func TestInjectionRateDerivation(t *testing.T) {
	c := quick("ecube")
	c.K = 16
	c.OfferedLoad = 0.4
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// lambda = rho * 2n / (ml * dbar) with dbar = 8.031.
	want := 0.4 * 4 / (16 * res.MeanDistance)
	if math.Abs(res.InjectionRate-want) > 1e-12 {
		t.Errorf("lambda = %v, want %v", res.InjectionRate, want)
	}
	if math.Abs(res.MeanDistance-8.031) > 0.001 {
		t.Errorf("mean distance %v", res.MeanDistance)
	}
	// At a low load the achieved throughput approximates the offered load.
	c.OfferedLoad = 0.2
	res, err = Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-0.2) > 0.03 {
		t.Errorf("achieved %v at offered 0.2", res.Throughput)
	}
}

func TestExplicitInjectionRateOverrides(t *testing.T) {
	c := quick("ecube")
	c.InjectionRate = 0.005
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectionRate != 0.005 {
		t.Errorf("rate %v, want 0.005", res.InjectionRate)
	}
}

// TestUnloadedLatencyMatchesEquationTwo at the experiment level: eq. (2)
// with negligible waiting.
func TestUnloadedLatencyNearFormula(t *testing.T) {
	c := quick("ecube")
	c.K = 16
	c.OfferedLoad = 0.02
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	want := res.MeanDistance + 16 - 1
	if math.Abs(res.AvgLatency-want) > 2 {
		t.Errorf("unloaded latency %v, want about %v", res.AvgLatency, want)
	}
}

func TestRunValidation(t *testing.T) {
	c := quick("bogus")
	if _, err := Run(c); err == nil {
		t.Error("unknown algorithm accepted")
	}
	c = quick("ecube")
	c.Pattern = "bogus"
	if _, err := Run(c); err == nil {
		t.Error("unknown pattern accepted")
	}
	c = quick("ecube")
	c.Policy = "bogus"
	if _, err := Run(c); err == nil {
		t.Error("unknown policy accepted")
	}
	c = quick("nhop")
	c.K = 5 // odd torus
	if _, err := Run(c); err == nil {
		t.Error("nhop on odd torus accepted")
	}
	c = quick("ecube")
	c.Switching = "teleport"
	if _, err := Run(c); err == nil {
		t.Error("unknown switching accepted")
	}
	c = quick("ecube")
	c.OfferedLoad = 50 // lambda > 1
	if _, err := Run(c); err == nil {
		t.Error("impossible offered load accepted")
	}
	c = quick("ecube")
	c.Pattern = "transpose"
	c.InjectionRate = 0 // derivation needs traffic; transpose generates some
	if _, err := Run(c); err != nil {
		t.Errorf("transpose run failed: %v", err)
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(quick("nbc"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quick("nbc"))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.Throughput != b.Throughput || a.Delivered != b.Delivered {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

func TestRunSAFSwitching(t *testing.T) {
	c := quick("phop")
	c.Switching = StoreFwd
	c.OfferedLoad = 0.1
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switching != StoreFwd {
		t.Error("switching echo wrong")
	}
	// SAF latency is far above the wormhole latency at the same low load.
	cw := quick("phop")
	cw.OfferedLoad = 0.1
	resW, err := Run(cw)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatency < 2*resW.AvgLatency {
		t.Errorf("saf latency %v should dwarf wormhole %v", res.AvgLatency, resW.AvgLatency)
	}
}

func TestRunSAFRejectsChannelAlgorithms(t *testing.T) {
	c := quick("ecube")
	c.Switching = StoreFwd
	if _, err := Run(c); err == nil {
		t.Error("saf with ecube should be rejected (no deadlock-free buffer form)")
	}
}

func TestRunVCTSwitching(t *testing.T) {
	c := quick("2pn")
	c.Switching = CutThrough
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switching != CutThrough || res.Throughput <= 0 {
		t.Errorf("vct run broken: %+v", res)
	}
}

func TestVCFlitShareSumsToOne(t *testing.T) {
	res, err := Run(quick("nhop"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VCFlitShare) == 0 {
		t.Fatal("no VC share recorded")
	}
	sum := 0.0
	for _, s := range res.VCFlitShare {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("VC shares sum to %v", sum)
	}
	// nhop loads lower classes more than higher ones (the imbalance nbc
	// exists to fix).
	if res.VCFlitShare[0] <= res.VCFlitShare[len(res.VCFlitShare)-1] {
		t.Errorf("nhop class 0 share %v should exceed top class %v",
			res.VCFlitShare[0], res.VCFlitShare[len(res.VCFlitShare)-1])
	}
}

func TestHopClassLatencyMonotoneTrend(t *testing.T) {
	res, err := Run(quick("phop"))
	if err != nil {
		t.Fatal(err)
	}
	// Distance-1 messages must be faster than diameter messages.
	first, last := -1.0, -1.0
	for d := 1; d < len(res.HopClassLatency); d++ {
		if res.HopClassLatency[d] >= 0 {
			if first < 0 {
				first = res.HopClassLatency[d]
			}
			last = res.HopClassLatency[d]
		}
	}
	if first < 0 || last < 0 || first >= last {
		t.Errorf("hop-class latencies not increasing: near %v far %v", first, last)
	}
}

func TestSweep(t *testing.T) {
	loads := []float64{0.1, 0.3}
	fr, err := RunFigure(FigureSpec{ID: "sweep", Algorithms: []string{"ecube"}, Loads: loads}, quick(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	results := fr.Series[0].Results
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.OfferedLoad != loads[i] {
			t.Errorf("result %d has load %v", i, r.OfferedLoad)
		}
	}
	if results[0].AvgLatency >= results[1].AvgLatency {
		t.Errorf("latency should rise with load: %v vs %v", results[0].AvgLatency, results[1].AvgLatency)
	}
	peak, at := PeakThroughput(results)
	if peak <= 0 || (at != 0.1 && at != 0.3) {
		t.Errorf("peak %v at %v", peak, at)
	}
	if p, a := PeakThroughput(nil); p != 0 || a != 0 {
		t.Error("empty peak should be zero")
	}
}

func TestMeshRun(t *testing.T) {
	c := quick("nlast")
	c.Mesh = true
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("mesh run delivered nothing")
	}
}

func TestHigherDimensionRun(t *testing.T) {
	c := quick("phop")
	c.K, c.N = 4, 3
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("4-ary 3-cube run delivered nothing")
	}
}
