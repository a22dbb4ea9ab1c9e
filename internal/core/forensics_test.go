package core

import (
	"encoding/json"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// quickForeCfg is quickTelCfg with metrics-only telemetry plus an
// every-cycle forensics analyzer, so blame attribution is exact.
func quickForeCfg() Config {
	cfg := quickTelCfg()
	cfg.Telemetry = &telemetry.Options{Metrics: true}
	cfg.Forensics = &forensics.Options{SampleEvery: 1}
	return cfg
}

// TestForensicsBitIdenticalResult pins the standing guarantee: attaching a
// forensics analyzer changes nothing about the simulation — every Result
// field except the Forensics summary itself is byte-identical to the
// detached run. (The -race variant with observatory clients hammering
// /blame lives in internal/observatory.)
func TestForensicsBitIdenticalResult(t *testing.T) {
	base := quickForeCfg()
	base.Forensics = nil
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withFore, err := Run(quickForeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if withFore.Forensics == nil {
		t.Fatal("Result.Forensics not filled")
	}
	withFore.Forensics = nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(withFore)
	if string(a) != string(b) {
		t.Errorf("forensics perturbed the run:\nwithout: %s\nwith:    %s", a, b)
	}
}

// TestBlameAttributesHotspotRoots is the acceptance scenario: on a
// saturated 8x8 hot-spot run, every-cycle forensics must attribute >= 95%
// of telemetry's head-blocked cycles to a root channel, and the top-4 blame
// roots must be the known hot-node feed channels (mirroring
// TestHotspotSaturatesHotChannels).
func TestBlameAttributesHotspotRoots(t *testing.T) {
	cfg := quickForeCfg()
	hot := 27 // node (3,3) on the 8x8 torus
	cfg.Pattern = "hotspot:0.2:27"
	cfg.OfferedLoad = 0.6
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forensics
	if f == nil {
		t.Fatal("no forensics summary")
	}
	headBlocked := res.Telemetry.TotalHeadBlocked()
	if headBlocked == 0 {
		t.Fatal("hotspot run saw no head-blocked cycles")
	}
	if f.BlockedObserved != headBlocked {
		t.Errorf("every-cycle forensics observed %d blocked cycles, telemetry counted %d",
			f.BlockedObserved, headBlocked)
	}
	if frac := float64(f.Attributed) / float64(headBlocked); frac < 0.95 {
		t.Errorf("attributed %.1f%% of head-blocked cycles, want >= 95%%", 100*frac)
	}
	g := cfg.Grid()
	into := 0
	top := f.TopRoots(4)
	if len(top) < 4 {
		t.Fatalf("fewer than 4 blame roots: %+v", top)
	}
	for _, r := range top {
		up, dim, dir := g.ChannelInfo(r.Ch)
		if g.Neighbor(up, dim, dir) == hot {
			into++
		}
	}
	if into < 3 {
		t.Errorf("only %d of the top-4 blame roots feed the hot node %d (top: %+v)", into, hot, top)
	}
	if f.Trees == 0 || f.MeanTreeSize < 1 {
		t.Errorf("implausible tree stats: %+v", f)
	}
}

// TestForensicsAnatomyDecomposes checks the latency anatomy bookkeeping:
// components are non-negative, the drain component is at least the unloaded
// minimum, and the component means sum back to the class's total mean.
func TestForensicsAnatomyDecomposes(t *testing.T) {
	res, err := Run(quickForeCfg())
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forensics
	var delivered int64
	for _, ca := range f.Anatomy {
		delivered += ca.Delivered
		if ca.Delivered == 0 {
			continue
		}
		sum := ca.Inject.Mean + ca.Alloc.Mean + ca.Behind.Mean + ca.Drain.Mean
		if diff := sum - ca.MeanTotal; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("class %d: components sum to %.3f, total mean %.3f", ca.Class, sum, ca.MeanTotal)
		}
		// Unloaded latency is ml + d - 1 >= MsgLen cycles for any worm with
		// at least one hop.
		if ca.Drain.Mean < float64(16) {
			t.Errorf("class %d: drain mean %.1f below the 16-flit minimum", ca.Class, ca.Drain.Mean)
		}
		if ca.Inject.Mean < 0 || ca.Alloc.Mean < 0 || ca.Behind.Mean < 0 {
			t.Errorf("class %d: negative component: %+v", ca.Class, ca)
		}
	}
	if delivered == 0 {
		t.Fatal("anatomy saw no deliveries")
	}
}

// TestForensicsSampledEstimates checks that sparse sampling still lands in
// the right ballpark: sampled blame totals should be within a factor of the
// exact count, and attribution stays complete.
func TestForensicsSampledEstimates(t *testing.T) {
	exactCfg := quickForeCfg()
	exact, err := Run(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	sampledCfg := quickForeCfg()
	sampledCfg.Forensics = &forensics.Options{SampleEvery: 16}
	sampled, err := Run(sampledCfg)
	if err != nil {
		t.Fatal(err)
	}
	se, ss := exact.Forensics, sampled.Forensics
	if ss.Samples == 0 || ss.SampleEvery != 16 {
		t.Fatalf("sampled summary %+v", ss)
	}
	if ss.AttributedFraction() < 0.999 {
		t.Errorf("sampled attribution fraction %.3f", ss.AttributedFraction())
	}
	if se.BlockedObserved == 0 {
		t.Fatal("exact run saw no blocking")
	}
	ratio := float64(ss.BlockedObserved) / float64(se.BlockedObserved)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("sampled estimate %d vs exact %d (ratio %.2f) out of range",
			ss.BlockedObserved, se.BlockedObserved, ratio)
	}
}
