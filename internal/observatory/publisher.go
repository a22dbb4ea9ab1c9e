// Package observatory is the simulator's live inspection surface: an
// embedded HTTP server exposing Prometheus-format metrics, a JSON state
// snapshot, a server-sent-event stream of run progress, a live channel
// heatmap and the net/http/pprof profiling endpoints.
//
// The simulation core stays single-threaded and deterministic; it only ever
// calls Publisher.PublishTick with deep copies of its state (core.TickEvent).
// The publisher stores the latest copy behind an atomic pointer, so HTTP
// handlers read without locks and never touch — let alone perturb — engine
// state. TestObservedRunIsBitIdentical pins that contract under -race.
package observatory

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/telemetry"
)

// Snapshot is the publisher's current view of the simulation: the most
// recent tick plus sweep-level aggregates. Handlers receive it as an
// immutable value; every field is a copy owned by the snapshot.
type Snapshot struct {
	// Tick is the latest engine publication (from whichever run published
	// last, when a sweep runs points in parallel).
	Tick core.TickEvent
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

	mu       sync.Mutex // guards the write side: rate state, results, subscribers
	lastWall time.Time
	lastKey  string
	results  []core.Result
	subs     map[chan []byte]struct{}

	sweepTotal atomic.Int64
	sweepDone  atomic.Int64
	phases     atomic.Pointer[telemetry.PhaseProfiler]

	// dropped counts SSE frames discarded because a subscriber's buffer was
	// full — the observable cost of the drop-rather-than-stall policy.
	dropped atomic.Int64

	store atomic.Pointer[storeCountersBox]
}

// StoreCounters is the slice of a run store the metrics exposition needs:
// cache-hit/miss counters and the record count. runstore.Store implements it.
type StoreCounters interface {
	Hits() int64
	Misses() int64
	Len() int
}

// storeCountersBox wraps the interface so it fits an atomic.Pointer.
type storeCountersBox struct{ sc StoreCounters }

// NewPublisher returns a publisher on the real clock.
func NewPublisher() *Publisher {
	return &Publisher{now: time.Now, subs: make(map[chan []byte]struct{})}
}

// SetPhases attaches a phase profiler whose snapshot is exported on /metrics
// and /snapshot.
func (p *Publisher) SetPhases(pp *telemetry.PhaseProfiler) { p.phases.Store(pp) }

// SetSweepTotal declares how many sweep points will run, for progress
// reporting.
func (p *Publisher) SetSweepTotal(n int) { p.sweepTotal.Store(int64(n)) }

// SetStore attaches a run store whose cache counters are exported on
// /metrics (wormsim_runstore_hits_total and friends).
func (p *Publisher) SetStore(sc StoreCounters) { p.store.Store(&storeCountersBox{sc}) }

// storeCounters returns the attached store, or nil.
func (p *Publisher) storeCounters() StoreCounters {
	if box := p.store.Load(); box != nil {
		return box.sc
	}
	return nil
}

// DroppedFrames reports SSE frames dropped because a subscriber was slow.
func (p *Publisher) DroppedFrames() int64 { return p.dropped.Load() }

// runKey identifies a run so rate estimation resets across sweep points.
func runKey(ev core.TickEvent) string {
	return fmt.Sprintf("%s/%s/%v/%d/%d/%v/%g/%d",
		ev.Algorithm, ev.Pattern, ev.Switching, ev.K, ev.N, ev.Mesh, ev.OfferedLoad, ev.Seed)
}

// PublishTick installs ev as the current snapshot and notifies subscribers.
// It is the Config.OnTick hook; ev is already a deep copy owned by the
// publisher.
func (p *Publisher) PublishTick(ev core.TickEvent) {
	wall := p.now() // clock read stays outside the critical section
	p.mu.Lock()
	rate := 0.0
	if prev := p.snap.Load(); prev != nil {
		rate = prev.CyclesPerSec
		if key := runKey(ev); key == p.lastKey && ev.Cycle > prev.Tick.Cycle {
			if dt := wall.Sub(p.lastWall).Seconds(); dt > 0 {
				rate = float64(ev.Cycle-prev.Tick.Cycle) / dt
			}
		}
	}
	p.lastKey = runKey(ev)
	p.lastWall = wall
	s := &Snapshot{
		Tick:         ev,
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
	p.broadcastLocked(tickMessage(ev, rate))
	if ev.Forensics != nil {
		p.broadcastLocked(blameMessage(ev))
	}
	for _, e := range ev.Events {
		p.broadcastLocked(sseMessage("worm", e))
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
	p.broadcastLocked(sseMessage("point", struct {
		Index int         `json:"index"`
		Done  int64       `json:"done"`
		Total int64       `json:"total"`
		Point core.Result `json:"point"`
	}{i, done, p.sweepTotal.Load(), r}))
	p.mu.Unlock()
}

// Snapshot returns the current state, or nil before the first publication.
func (p *Publisher) Snapshot() *Snapshot { return p.snap.Load() }

// Subscribe registers an SSE consumer. The returned channel carries
// ready-to-send SSE frames; it is buffered and the publisher drops frames
// rather than block, so a slow client can never stall a publication. cancel
// unregisters and closes the channel.
func (p *Publisher) Subscribe() (frames <-chan []byte, cancel func()) {
	ch := make(chan []byte, 64)
	p.mu.Lock()
	p.subs[ch] = struct{}{}
	p.mu.Unlock()
	return ch, func() {
		p.mu.Lock()
		if _, ok := p.subs[ch]; ok {
			delete(p.subs, ch)
			close(ch)
		}
		p.mu.Unlock()
	}
}

// broadcastLocked fans a frame out to every subscriber, dropping it for any
// whose buffer is full. Callers hold p.mu.
func (p *Publisher) broadcastLocked(frame []byte) {
	for ch := range p.subs { //lint:allow simdeterminism (fan-out; per-subscriber delivery stays FIFO via the channel)
		select {
		case ch <- frame:
		default: // slow client: drop rather than stall the simulation side
			p.dropped.Add(1)
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
func blameMessage(ev core.TickEvent) []byte {
	f := ev.Forensics
	return sseMessage("blame", struct {
		Cycle      int64            `json:"cycle"`
		Samples    int64            `json:"samples"`
		Observed   int64            `json:"observed"`
		Attributed float64          `json:"attributedFraction"`
		Trees      int64            `json:"trees"`
		WaitCycles int64            `json:"waitCycles"`
		TopRoots   []forensics.Root `json:"topRoots,omitempty"`
	}{ev.Cycle, f.Samples, f.BlockedObserved, f.AttributedFraction(),
		f.Trees, f.WaitCycles, f.TopRoots(4)})
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
