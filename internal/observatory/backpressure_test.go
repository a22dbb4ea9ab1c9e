package observatory

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"wormsim/internal/core"
)

// TestStalledSubscriberDropsFramesNotResults pins the backpressure
// contract: a stalled /events client (its handler goroutine stops draining
// the subscription channel, which is exactly what a never-reading
// subscriber is) loses frames — counted on the drop counter and exported on
// /metrics — while the simulation's Result stays bit-identical to a run
// with no observatory attached. Slow consumers cost themselves data, never
// the experiment.
func TestStalledSubscriberDropsFramesNotResults(t *testing.T) {
	cfg := goldenConfig()
	cfg.TickCycles = 5 // hundreds of frames, far beyond the 64-frame buffer
	bare, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pub := testPublisher()
	// A subscriber that never reads: its 64-frame buffer fills and every
	// further frame addressed to it must be dropped.
	_, cancel := pub.Subscribe()
	defer cancel()

	observed := cfg
	observed.OnTick = pub.PublishTick
	res, err := core.Run(observed)
	if err != nil {
		t.Fatal(err)
	}

	if pub.DroppedFrames() == 0 {
		t.Error("stalled subscriber dropped no frames — was the publication volume reduced?")
	}
	bj, _ := json.Marshal(bare)
	rj, _ := json.Marshal(res)
	if !bytes.Equal(bj, rj) {
		t.Errorf("result diverged under a stalled subscriber:\nbare     %s\nobserved %s", bj, rj)
	}

	var buf bytes.Buffer
	if err := pub.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "wormsim_sse_dropped_frames_total ") {
			if strings.TrimPrefix(line, "wormsim_sse_dropped_frames_total ") == "0" {
				t.Errorf("metrics report zero dropped frames: %q", line)
			}
			return
		}
	}
	t.Error("wormsim_sse_dropped_frames_total missing from /metrics")
}

// TestHubSendAllocatesNothing: fanning a frame out allocates nothing,
// whether the frame is delivered or dropped on a full buffer.
func TestHubSendAllocatesNothing(t *testing.T) {
	var h hub
	h.add(1)
	h.add(1)
	frame := []byte("event: tick\ndata: {}\n\n")
	if allocs := testing.AllocsPerRun(100, func() { h.send(frame) }); allocs != 0 {
		t.Errorf("hub.send allocates %v times per frame, want 0", allocs)
	}
	if got := h.dropped.Load(); got != 2*100 {
		t.Errorf("dropped %d frames, want 200 (both one-frame buffers full after the warm-up send)", got)
	}
}
