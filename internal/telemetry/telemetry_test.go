package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCollectorMetrics(t *testing.T) {
	c := New(Options{Metrics: true}, 2)
	// Cycle 1: one VC of class 0 owned, one blocked header.
	c.VCAcquired(0)
	c.InjEnqueue()
	c.HeadBlocked(3)
	c.EndCycle()
	// Cycle 2: class-0 VC released, class-1 acquired.
	c.VCReleased(0)
	c.VCAcquired(1)
	c.InjDequeue()
	c.Drop(2, 7, 1, 3)
	c.EndCycle()

	// The engine's counts of the two cycles: one drop, channel 2 busy both
	// cycles, channel 0 in the second.
	s := c.Summary(2, 1, []int64{1, 0, 2, 0})
	if s.Cycles != 2 {
		t.Errorf("Cycles = %d, want 2", s.Cycles)
	}
	if got := s.ChannelBusy[2]; got != 2 {
		t.Errorf("ChannelBusy[2] = %d, want 2", got)
	}
	if got := s.ChannelUtilization(2); got != 1.0 {
		t.Errorf("ChannelUtilization(2) = %g, want 1", got)
	}
	if got := s.HeadBlockedByClass[3]; got != 1 {
		t.Errorf("HeadBlockedByClass[3] = %d, want 1", got)
	}
	if s.TotalHeadBlocked() != 1 {
		t.Errorf("TotalHeadBlocked = %d, want 1", s.TotalHeadBlocked())
	}
	if s.Drops != 1 {
		t.Errorf("Drops = %d, want 1", s.Drops)
	}
	if got := s.VCOccupancyMean[0]; got != 0.5 {
		t.Errorf("VCOccupancyMean[0] = %g, want 0.5", got)
	}
	if got := s.VCOccupancyMax[1]; got != 1 {
		t.Errorf("VCOccupancyMax[1] = %g, want 1", got)
	}
	if got := s.InjQueueMax; got != 1 {
		t.Errorf("InjQueueMax = %g, want 1", got)
	}
	if got := s.BusiestChannels(2); got[0] != 2 || got[1] != 0 {
		t.Errorf("BusiestChannels(2) = %v, want [2 0]", got)
	}
	// Ties break by index.
	if got := s.BusiestChannels(4); got[2] != 1 || got[3] != 3 {
		t.Errorf("BusiestChannels(4) = %v, want tail [1 3]", got)
	}
}

func TestRingEvictionAndSampling(t *testing.T) {
	c := New(Options{Trace: true, TraceCap: 4, SampleEvery: 2}, 1)
	for i := int64(0); i < 10; i++ {
		c.Inject(i, i, int(i), 0) // odd IDs are not sampled
	}
	evs := c.Events(0, 0)
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4 (capacity)", len(evs))
	}
	// Only even IDs kept, oldest evicted: 5 sampled injections, cap 4.
	want := []int64{2, 4, 6, 8}
	for i, e := range evs {
		if e.Msg != want[i] {
			t.Errorf("event %d: msg %d, want %d", i, e.Msg, want[i])
		}
		if e.Type != EvInject {
			t.Errorf("event %d: type %v", i, e.Type)
		}
	}
	if s := c.Summary(0, 0, nil); s.TraceEvicted != 1 || s.TraceEvents != 4 {
		t.Errorf("evicted/retained = %d/%d, want 1/4", s.TraceEvicted, s.TraceEvents)
	}
	last := c.Events(0, 2)
	if len(last) != 2 || last[0].Msg != 6 || last[1].Msg != 8 {
		t.Errorf("Events(0, 2) = %v", last)
	}
	if got := c.Events(0, 100); len(got) != 4 {
		t.Errorf("Events(0, 100) returned %d events", len(got))
	}
}

func TestDisabledTraceRecordsNothing(t *testing.T) {
	c := New(Options{Metrics: true}, 1)
	c.Inject(0, 0, 0, 1)
	c.Hop(1, 0, 1, 0, 0)
	c.Deliver(2, 0, 1)
	if evs := c.Events(0, 0); evs != nil {
		t.Errorf("metrics-only collector recorded %d events", len(evs))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Cycle: 0, Msg: 3, Type: EvInject, Node: 1, Ch: -1, VC: -1, Src: 1, Dst: 9},
		{Cycle: 2, Msg: 3, Type: EvVCAlloc, Node: 1, Ch: 4, VC: 0, Src: -1, Dst: -1},
		{Cycle: 3, Msg: 3, Type: EvHop, Node: 2, Ch: 4, VC: 0, Src: -1, Dst: -1},
		{Cycle: 9, Msg: 3, Type: EvDeliver, Node: 9, Ch: -1, VC: -1, Src: -1, Dst: -1},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, e)
	}
	if len(got) != len(events) {
		t.Fatalf("round-tripped %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Errorf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
	if !strings.Contains(FormatEvents(events), "msg 3") {
		t.Errorf("FormatEvents missing msg id:\n%s", FormatEvents(events))
	}
}

func TestWormState(t *testing.T) {
	w := WormState{
		ID: 5, Src: 0, Dst: 7, Len: 16, HopsTaken: 2, HopsTotal: 4, Routed: true,
		Holding: []VCHold{
			{Ch: -1, Class: 0, Node: 0, Flits: 10},
			{Ch: 3, Class: 1, Node: 1, Flits: 2},
			{Ch: 8, Class: 1, Node: 2, Flits: 4},
		},
	}
	if w.HeldVCs() != 2 {
		t.Errorf("HeldVCs = %d, want 2 (injection slot excluded)", w.HeldVCs())
	}
	if w.BufferedFlits() != 6 {
		t.Errorf("BufferedFlits = %d, want 6", w.BufferedFlits())
	}
	if s := w.String(); !strings.Contains(s, "msg 5 0->7") || !strings.Contains(s, "holds 2 VCs") {
		t.Errorf("String = %q", s)
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	clock := time.Unix(0, 0)
	p := NewProgress(&buf, "sweep", 4)
	p.now = func() time.Time { return clock }
	p.start = clock

	clock = clock.Add(2 * time.Second)
	p.Step("alg=ecube rho=0.10")
	out := buf.String()
	if !strings.Contains(out, "[1/4] sweep alg=ecube rho=0.10") {
		t.Errorf("first line = %q", out)
	}
	// 1 of 4 done in 2s -> 6s to go.
	if !strings.Contains(out, "eta 6s") {
		t.Errorf("missing eta in %q", out)
	}
	clock = clock.Add(6 * time.Second)
	buf.Reset()
	p.Step("a")
	p.Step("b")
	p.Step("c")
	p.Finish()
	out = buf.String()
	if !strings.Contains(out, "[4/4] sweep done in 8s") {
		t.Errorf("finish line missing from %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Finish did not terminate the line: %q", out)
	}
}
