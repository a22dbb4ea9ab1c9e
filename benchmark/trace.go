package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval recorded by the harness around a call into a layer.
// Spans of one simulation point share its id (Config.Hash()[:12]).
type span struct {
	name       string
	id         string
	parent     int // index into tracer.spans; -1 for a root
	tid        int
	start, end time.Duration // since tracer.t0
	// synthetic marks engine-phase totals laid end to end inside their
	// point: real durations (telemetry.PhaseProfiler), not real intervals.
	synthetic bool
}

// Track ids of the Chrome trace. Everything the harness does is sequential
// and sits on trackMain, except the parallel workload's engine totals: they
// are summed over workers, so they outlast the sweep and get their own track.
const (
	trackMain = iota + 1
	trackEngine
)

// tracer keeps spans in memory until the traced run ends; the untraced run
// has none.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

func (t *tracer) now() time.Duration {
	return time.Since(t.t0)
}

// begin opens a span on the main track and returns its index for end and
// for children.
func (t *tracer) begin(name, id string, parent int) int {
	return t.add(span{name: name, id: id, parent: parent, tid: trackMain, start: t.now(), end: -1})
}

func (t *tracer) end(i int) {
	t.spans[i].end = t.now()
}

// dur is span i's duration.
func (t *tracer) dur(i int) time.Duration { return t.spans[i].end - t.spans[i].start }

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one parent on one track never overlap (the harness records
// them sequentially), so the covered part is the sum of their durations.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 && s.tid == t.spans[s.parent].tid {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// worstSelfGap reports, over the spans called name, the largest relative
// difference between a span's duration and the self times summed over its
// subtree: 0 when children tile inside their parents, larger when a child
// overran one.
func (t *tracer) worstSelfGap(name string) float64 {
	self := t.selfTimes()
	subtree := make([]time.Duration, len(self))
	for i := len(t.spans) - 1; i >= 0; i-- { // children are recorded after parents
		if self[i] > 0 {
			subtree[i] += self[i]
		}
		if p := t.spans[i].parent; p >= 0 && t.spans[i].tid == t.spans[p].tid {
			subtree[p] += subtree[i]
		}
	}
	var worst float64
	for i, s := range t.spans {
		if d := s.end - s.start; s.name == name && d > 0 {
			gap := float64(subtree[i]-d) / float64(d)
			if gap < 0 {
				gap = -gap
			}
			if gap > worst {
				worst = gap
			}
		}
	}
	return worst
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = fmt.Sprintf("%s#%d", t.spans[s.parent].name, s.parent)
		}
		events[i] = chromeEvent{
			Name: s.name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{
				"span": i, "id": s.id, "parent": parent,
				"self_us": float64(self[i]) / 1e3, "synthetic": s.synthetic,
			},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("benchmark: trace directory: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("benchmark: encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("benchmark: write trace: %w", err)
	}
	return nil
}
