// Package observatory is the simulator's live inspection surface: an
// embedded HTTP server exposing Prometheus-format metrics, a JSON state
// snapshot, a server-sent-event stream of run progress, a live channel
// heatmap, a read-only view of the run store and the net/http/pprof
// profiling endpoints.
//
// The simulation core stays single-threaded and deterministic; it only ever
// calls Publisher.PublishTick with copies of its state (core.TickEvent),
// and the publisher loads the bulk of that state only when a reader has
// asked for a snapshot since the last load. It stores the latest copy
// behind an atomic pointer, so HTTP handlers read without locks and never
// touch — let alone perturb — engine state. TestObservedRunIsBitIdentical
// pins that contract under -race.
package observatory

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/runstore"
	"wormsim/internal/telemetry"
)

// Snapshot is the publisher's current view of the simulation: the most
// recent tick, the most recent loaded engine state, and sweep-level
// aggregates. Handlers receive it as an immutable value; every field is a
// copy owned by the snapshot.
type Snapshot struct {
	// Tick is the latest engine publication (from whichever run published
	// last, when a sweep runs points in parallel), without its bulk fields.
	Tick core.TickEvent
	// State is the latest publication that carried bulk state: one loaded
	// because Snapshot was called since the load before it, or a run's final
	// tick. Its identity and Cycle say which run and cycle the state was
	// taken at; nil until the first such publication.
	State *core.TickEvent `json:",omitempty"`
	// CyclesPerSec is the simulated-cycle rate estimated across the last two
	// ticks of the same run (0 until two ticks have arrived).
	CyclesPerSec float64
	// SweepTotal and SweepDone track sweep progress (0 total for single runs).
	SweepTotal int
	SweepDone  int
	// Results accumulates completed sweep points in completion order.
	Results []core.Result
	// Phases is the engine phase profile, when a profiler is attached.
	Phases *telemetry.PhaseSnapshot
}

// Publisher receives state publications from the simulation side and serves
// them to concurrent readers. The write side (PublishTick, PublishPoint) is
// safe for concurrent use by sweep workers; the read side (Snapshot,
// WriteMetrics via Server) is lock-free on the hot path.
type Publisher struct {
	// now is the wall clock for rate estimation; injectable so the metrics
	// golden test is deterministic.
	now func() time.Time

	snap atomic.Pointer[Snapshot]
	// wanted is set by Snapshot and cleared by the next PublishTick, which
	// then loads the bulk state for the readers to come.
	wanted atomic.Bool

	mu       sync.Mutex // guards the write side: rate state, results, subscribers
	lastWall time.Time
	lastKey  string
	results  []core.Result
	subs     hub // the /events subscribers

	sweepTotal atomic.Int64
	sweepDone  atomic.Int64
	phases     atomic.Pointer[telemetry.PhaseProfiler]
	store      atomic.Pointer[runstore.Store] // attached by Listen for /metrics' run-store counters
}

// NewPublisher returns a publisher on the real clock.
func NewPublisher() *Publisher { return &Publisher{now: time.Now} }

// SetPhases attaches a phase profiler whose snapshot is exported on /metrics
// and /snapshot.
func (p *Publisher) SetPhases(pp *telemetry.PhaseProfiler) { p.phases.Store(pp) }

// SetSweepTotal declares how many sweep points will run, for progress
// reporting.
func (p *Publisher) SetSweepTotal(n int) { p.sweepTotal.Store(int64(n)) }

// DroppedFrames reports SSE frames dropped because a subscriber was slow.
func (p *Publisher) DroppedFrames() int64 { return p.subs.dropped.Load() }

// runKey identifies a run so rate estimation resets across sweep points.
func runKey(ev core.TickEvent) string {
	return fmt.Sprintf("%s/%s/%v/%d/%d/%v/%g/%d",
		ev.Algorithm, ev.Pattern, ev.Switching, ev.K, ev.N, ev.Mesh, ev.OfferedLoad, ev.Seed)
}

// PublishTick installs ev as the current snapshot and notifies subscribers.
// It is the Config.OnTick hook. The SSE frames come from ev's cheap fields;
// the bulk state is loaded, and becomes the snapshot's State, only when
// Snapshot was called since the last load.
func (p *Publisher) PublishTick(ev core.TickEvent) {
	if p.wanted.Swap(false) {
		ev.Load()
	}
	wall, key := p.now(), runKey(ev) // both stay outside the critical section
	p.mu.Lock()
	rate := 0.0
	var state *core.TickEvent
	if prev := p.snap.Load(); prev != nil {
		rate = prev.CyclesPerSec
		state = prev.State
		if key == p.lastKey && ev.Cycle > prev.Tick.Cycle {
			if dt := wall.Sub(p.lastWall).Seconds(); dt > 0 {
				rate = float64(ev.Cycle-prev.Tick.Cycle) / dt
			}
		}
	}
	p.lastKey = key
	p.lastWall = wall
	if ev.Loaded() {
		loaded := ev
		state = &loaded
	}
	tick := ev
	tick.Worms, tick.ChannelFlits, tick.Telemetry, tick.Forensics = nil, nil, nil, nil
	s := &Snapshot{
		Tick:         tick,
		State:        state,
		CyclesPerSec: rate,
		SweepTotal:   int(p.sweepTotal.Load()),
		SweepDone:    int(p.sweepDone.Load()),
		Results:      p.results,
	}
	if pp := p.phases.Load(); pp != nil {
		ps := pp.Snapshot()
		s.Phases = &ps
	}
	p.snap.Store(s)
	p.subs.send(tickMessage(ev, rate))
	if ev.Blame != nil {
		p.subs.send(blameMessage(ev.Cycle, ev.Blame))
	}
	for _, e := range ev.Events {
		p.subs.send(sseMessage("worm", e))
	}
	p.mu.Unlock()
}

// PublishPoint records a completed sweep point (the core.RunFigure onDone
// hook, i its flat point index; safe for concurrent workers).
func (p *Publisher) PublishPoint(i int, r core.Result) {
	done := p.sweepDone.Add(1)
	p.mu.Lock()
	r.TraceEvents = nil // trace rings can be large; the stream reports aggregates
	p.results = append(p.results, r)
	// Refresh the snapshot's sweep fields even between ticks.
	if prev := p.snap.Load(); prev != nil {
		s := *prev
		s.SweepTotal = int(p.sweepTotal.Load())
		s.SweepDone = int(done)
		s.Results = p.results
		p.snap.Store(&s)
	}
	p.subs.send(sseMessage("point", struct {
		Index int         `json:"index"`
		Done  int64       `json:"done"`
		Total int64       `json:"total"`
		Point core.Result `json:"point"`
	}{i, done, p.sweepTotal.Load(), r}))
	p.mu.Unlock()
}

// Snapshot returns the current state, or nil before the first publication.
// It asks the next PublishTick to load the engine state, so a reader polling
// it sees a State at most one poll old.
func (p *Publisher) Snapshot() *Snapshot {
	if !p.wanted.Load() {
		p.wanted.Store(true)
	}
	return p.snap.Load()
}

// latest returns the current state without asking for a load, for readers
// of the cheap fields only.
func (p *Publisher) latest() *Snapshot { return p.snap.Load() }

// Subscribe registers an SSE consumer. The returned channel carries
// ready-to-send SSE frames; it is buffered and the publisher drops frames
// rather than block, so a slow client can never stall a publication. cancel
// unregisters and closes the channel.
func (p *Publisher) Subscribe() (frames <-chan []byte, cancel func()) {
	p.mu.Lock()
	ch := p.subs.add(64)
	p.mu.Unlock()
	return ch, func() {
		p.mu.Lock()
		p.subs.remove(ch)
		p.mu.Unlock()
	}
}

// hub is a set of SSE subscribers, fed without blocking: a frame that finds
// a subscriber's buffer full is dropped for that subscriber and counted, so
// a slow client costs itself data and never stalls the sender. The zero
// value is an empty hub. The Publisher's mutex guards every method; dropped
// may be read at any time.
type hub struct {
	subs    map[chan []byte]struct{}
	dropped atomic.Int64
}

// add registers a subscriber whose channel buffers up to size frames.
func (h *hub) add(size int) chan []byte {
	if h.subs == nil {
		h.subs = make(map[chan []byte]struct{})
	}
	ch := make(chan []byte, size)
	h.subs[ch] = struct{}{}
	return ch
}

// remove unregisters ch and closes it; removing it again does nothing.
func (h *hub) remove(ch chan []byte) {
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
}

// send fans frame out to every subscriber.
func (h *hub) send(frame []byte) {
	for ch := range h.subs { // any order: each subscriber's own delivery stays FIFO via its channel
		select {
		case ch <- frame:
		default:
			h.dropped.Add(1)
		}
	}
}

// sseMessage formats one server-sent event with an event name and JSON data.
func sseMessage(event string, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return []byte("event: " + event + "\ndata: " + string(data) + "\n\n")
}

// blameMessage is the SSE frame for the forensics view of one tick: blame
// and attribution totals plus the current top root channels. Clients wanting
// the full anatomy (histograms, per-channel blame vector) poll /blame.
func blameMessage(cycle int64, h *forensics.Head) []byte {
	return sseMessage("blame", struct {
		Cycle      int64            `json:"cycle"`
		Samples    int64            `json:"samples"`
		Observed   int64            `json:"observed"`
		Attributed float64          `json:"attributedFraction"`
		Trees      int64            `json:"trees"`
		WaitCycles int64            `json:"waitCycles"`
		TopRoots   []forensics.Root `json:"topRoots,omitempty"`
	}{cycle, h.Samples, h.BlockedObserved, h.AttributedFraction,
		h.Trees, h.WaitCycles, h.TopRoots})
}

// tickMessage is the SSE frame for one engine tick: a compact progress
// summary rather than the full state (clients wanting everything poll
// /snapshot).
func tickMessage(ev core.TickEvent, rate float64) []byte {
	t := ev.Counters
	return sseMessage("tick", struct {
		Algorithm   string  `json:"algorithm"`
		Pattern     string  `json:"pattern"`
		OfferedLoad float64 `json:"load"`
		Cycle       int64   `json:"cycle"`
		InFlight    int     `json:"inflight"`
		Delivered   int64   `json:"delivered"`
		Dropped     int64   `json:"dropped"`
		FlitMoves   int64   `json:"flitMoves"`
		Rate        float64 `json:"cyclesPerSec"`
		Final       bool    `json:"final"`
	}{ev.Algorithm, ev.Pattern, ev.OfferedLoad, ev.Cycle, ev.InFlight,
		t.Delivered, t.Dropped, t.FlitMoves, rate, ev.Final})
}
