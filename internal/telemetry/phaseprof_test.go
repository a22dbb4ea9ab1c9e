package telemetry

import (
	"strings"
	"testing"
)

// tickClock advances a fixed step per read, so phase attributions are exact.
func tickClock(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

func TestPhaseProfilerAttribution(t *testing.T) {
	pp := NewPhaseProfilerClock(tickClock(10))
	tm := pp.Timer()
	for cycle := 0; cycle < 3; cycle++ {
		tm.Begin()
		tm.Mark(PhaseInject)
		tm.Mark(PhaseRoute)
		tm.Mark(PhaseEject)
		tm.Mark(PhaseTransfer)
		tm.Mark(PhaseWatchdog)
	}
	s := pp.Snapshot()
	if s.Cycles != 3 {
		t.Errorf("cycles = %d, want 3", s.Cycles)
	}
	if len(s.Phases) != int(NumPhases) {
		t.Fatalf("phases = %d, want %d", len(s.Phases), NumPhases)
	}
	for i, p := range s.Phases {
		if p.Phase != Phase(i).String() {
			t.Errorf("phase %d named %q, want %q", i, p.Phase, Phase(i))
		}
		// Every Mark is one 10ns clock step away from the previous read.
		if p.Nanos != 30 {
			t.Errorf("phase %s accumulated %dns, want 30", p.Phase, p.Nanos)
		}
		if got, want := p.Share, 1.0/float64(NumPhases); got != want {
			t.Errorf("phase %s share = %g, want %g", p.Phase, got, want)
		}
	}
	if s.Total() != 150 {
		t.Errorf("total = %v, want 150ns", s.Total())
	}
}

// TestPhaseProfilerStrideDoesNotAlias: a cost that recurs every 64th cycle
// (forensics' default sampling period) must be attributed at its true weight
// by the stride-sampling profiler, not seen on every sampled cycle.
func TestPhaseProfilerStrideDoesNotAlias(t *testing.T) {
	var clock int64
	pp := NewPhaseProfilerClock(func() int64 { return clock })
	pp.stride = sampleStride
	tm := pp.Timer()
	const cycles, every, spike, base = 100000, 64, 6400, 100
	var wantRoute, wantTransfer int64
	for cycle := 0; cycle < cycles; cycle++ {
		tm.Begin()
		if cycle%every == 0 {
			clock += spike
			wantRoute += spike
		}
		tm.Mark(PhaseRoute)
		clock += base
		wantTransfer += base
		tm.Mark(PhaseTransfer)
	}
	s := pp.Snapshot()
	for _, c := range []struct {
		phase Phase
		want  int64
	}{{PhaseRoute, wantRoute}, {PhaseTransfer, wantTransfer}} {
		got := s.Phases[c.phase].Nanos
		if diff := float64(got-c.want) / float64(c.want); diff < -0.02 || diff > 0.02 {
			t.Errorf("phase %s attributed %dns, truth %dns (%+.1f%%)", c.phase, got, c.want, 100*diff)
		}
	}
}

func TestPhaseProfilerReport(t *testing.T) {
	pp := NewPhaseProfilerClock(tickClock(1000))
	tm := pp.Timer()
	tm.Begin()
	tm.Mark(PhaseRoute)
	out := pp.Snapshot().String()
	for _, want := range []string{"phase profile: 1 cycles", "inject", "route", "transfer", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseProfilerRealClock(t *testing.T) {
	pp := NewPhaseProfiler()
	tm := pp.Timer()
	tm.Begin()
	tm.Mark(PhaseInject)
	s := pp.Snapshot()
	if s.Cycles != 1 {
		t.Errorf("cycles = %d", s.Cycles)
	}
	if s.Phases[PhaseInject].Nanos < 0 {
		t.Errorf("monotonic clock went backwards: %d", s.Phases[PhaseInject].Nanos)
	}
}

func TestCollectorRecordedCursor(t *testing.T) {
	c := New(Options{Trace: true, TraceCap: 4}, 2, 1)
	if c.Recorded() != 0 {
		t.Errorf("fresh collector recorded %d", c.Recorded())
	}
	for i := int64(0); i < 6; i++ {
		c.Inject(i, i, 0, 1)
	}
	// 6 recorded in a 4-slot ring: 2 evicted, 4 retained.
	if got := c.Recorded(); got != 6 {
		t.Errorf("recorded = %d, want 6", got)
	}
	if got := len(c.Events()); got != 4 {
		t.Errorf("retained = %d, want 4", got)
	}
	var nilc *Collector
	if nilc.Recorded() != 0 {
		t.Error("nil collector recorded != 0")
	}
}
