package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Phase labels one stage of the network engine's per-cycle pipeline, in
// execution order. The route phase covers both the routing decision and
// virtual-channel allocation (the engine performs them together per header);
// transfer is switch traversal (channel arbitration plus flit movement);
// watchdog covers stall detection and end-of-cycle bookkeeping. The eject
// phase is retained for wire compatibility, but the engine fuses ejection
// into its transfer scan, so its share reads zero there.
type Phase uint8

// The engine phases, in the order Step executes them.
const (
	PhaseInject Phase = iota
	PhaseRoute
	PhaseEject
	PhaseTransfer
	PhaseWatchdog
	// NumPhases sizes per-phase arrays.
	NumPhases
)

// phaseNames maps Phase to its wire name.
var phaseNames = [NumPhases]string{"inject", "route", "eject", "transfer", "watchdog"}

// String returns the wire name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// PhaseProfiler attributes wall-clock time to engine phases. One profiler
// may be shared by the engines of a parallel sweep: its accumulators are
// atomics, so concurrent engines add to them through per-engine Timers and
// the observatory's HTTP handlers may Snapshot at any moment — all without
// perturbing any run. The profiler observes only the wall clock; it feeds
// nothing back into the simulation, so results stay bit-identical with and
// without it.
type PhaseProfiler struct {
	// now returns monotonic nanoseconds; injectable for deterministic tests.
	now func() int64
	// stride is the sampling period: a timer reads the clock on one cycle in
	// stride and scales that cycle's attributions by stride, so totals and
	// shares remain unbiased estimates while the other cycles cost two
	// predictable branches instead of seven clock reads and six atomic adds.
	stride int64

	nanos  [NumPhases]atomic.Int64
	cycles atomic.Int64
}

// sampleStride is the real-clock sampling period. Engine cycles run in the
// low microseconds while a monotonic clock read costs tens of nanoseconds;
// sampling one cycle in seven keeps the profiler's overhead below the noise
// floor of what it measures. The period is odd on purpose: work that recurs
// on a fixed cycle period (forensics samples every 64th cycle, the run loop
// ticks and closes sampling windows on round decimal counts) would be seen
// on every one of its cycles or on none by a stride sharing a factor with
// that period, and then weighted stride-fold or not at all. Seven is coprime
// to all of them, so such work is sampled one time in seven like the rest.
const sampleStride = 7

// NewPhaseProfiler returns a profiler on the real (monotonic) clock,
// stride-sampling one cycle in seven.
func NewPhaseProfiler() *PhaseProfiler {
	// Profiling genuinely wants the wall clock; it never feeds simulation
	// state, and tests inject a counter instead.
	base := time.Now()                                                           //lint:allow simdeterminism (profiler clock, observe-only)
	pp := NewPhaseProfilerClock(func() int64 { return int64(time.Since(base)) }) //lint:allow simdeterminism (profiler clock, observe-only)
	pp.stride = sampleStride
	return pp
}

// NewPhaseProfilerClock returns a profiler reading the given monotonic
// nanosecond clock on every cycle (stride 1), so injected-clock tests see
// exact attribution.
func NewPhaseProfilerClock(now func() int64) *PhaseProfiler {
	return &PhaseProfiler{now: now, stride: 1}
}

// Timer returns a cursor for one engine's use of the profiler. The engine
// holds a *PhaseTimer exactly like it holds a *Collector: nil means
// profiling is off and every hook site is one predictable branch, a contract
// wormlint's hookguard pass enforces. The cursor's last-mark state is
// engine-local (Begin and Mark run on the single simulation goroutine);
// only the accumulation into the shared profiler is atomic.
func (pp *PhaseProfiler) Timer() *PhaseTimer {
	if pp == nil {
		return nil
	}
	return &PhaseTimer{pp: pp}
}

// PhaseTimer is one engine's private cursor into a shared PhaseProfiler.
type PhaseTimer struct {
	pp   *PhaseProfiler
	last int64
	// countdown cycles remain until the next sampled cycle; sampling marks
	// whether the current cycle is being timed. pending batches the cycle
	// count between samples so unsampled cycles touch no atomics.
	countdown int64
	sampling  bool
	pending   int64
}

// Begin opens one engine cycle: subsequent Marks attribute time since the
// previous Mark (or this Begin). On unsampled cycles (see the profiler's
// stride) Begin only decrements a counter and Marks are no-ops.
func (t *PhaseTimer) Begin() {
	t.pending++
	if t.countdown > 0 {
		t.countdown--
		t.sampling = false
		return
	}
	t.countdown = t.pp.stride - 1
	t.sampling = true
	t.pp.cycles.Add(t.pending) //lint:allow purity (observe-only profile accumulator; results never read it)
	t.pending = 0
	t.last = t.pp.now()
}

// Mark attributes the time elapsed since the last Begin/Mark to phase p,
// scaled by the profiler's sampling stride.
func (t *PhaseTimer) Mark(p Phase) {
	if !t.sampling {
		return
	}
	now := t.pp.now()
	t.pp.nanos[p].Add((now - t.last) * t.pp.stride) //lint:allow purity (observe-only profile accumulator; results never read it)
	t.last = now
}

// PhaseStat is one phase's share of a PhaseSnapshot.
type PhaseStat struct {
	// Phase is the wire name ("inject", "route", ...).
	Phase string
	// Nanos is accumulated wall time in nanoseconds.
	Nanos int64
	// Share is Nanos over the snapshot total (0 when the total is zero).
	Share float64
}

// PhaseSnapshot is a point-in-time reading of a profiler, safe to take from
// any goroutine. It marshals cleanly to JSON for BENCH artifacts and the
// observatory's /metrics.
type PhaseSnapshot struct {
	// Cycles is how many engine cycles the profiler has opened.
	Cycles int64
	// Phases lists the stages in execution order.
	Phases []PhaseStat
}

// Snapshot reads the accumulators.
func (pp *PhaseProfiler) Snapshot() PhaseSnapshot {
	s := PhaseSnapshot{Cycles: pp.cycles.Load(), Phases: make([]PhaseStat, NumPhases)}
	var total int64
	for i := range s.Phases {
		n := pp.nanos[i].Load()
		s.Phases[i] = PhaseStat{Phase: Phase(i).String(), Nanos: n}
		total += n
	}
	if total > 0 {
		for i := range s.Phases {
			s.Phases[i].Share = float64(s.Phases[i].Nanos) / float64(total)
		}
	}
	return s
}

// Total sums the per-phase wall time.
func (s PhaseSnapshot) Total() time.Duration {
	var total int64
	for _, p := range s.Phases {
		total += p.Nanos
	}
	return time.Duration(total)
}

// String renders the end-of-run report behind the CLIs' -phaseprof flag.
func (s PhaseSnapshot) String() string {
	var b strings.Builder
	total := s.Total()
	fmt.Fprintf(&b, "phase profile: %d cycles, %v total engine time", s.Cycles, total.Round(time.Microsecond))
	if s.Cycles > 0 && total > 0 {
		fmt.Fprintf(&b, " (%v/cycle)", (total / time.Duration(s.Cycles)).Round(time.Nanosecond))
	}
	b.WriteByte('\n')
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "  %-9s %10v %5.1f%% %s\n",
			p.Phase, time.Duration(p.Nanos).Round(time.Microsecond), 100*p.Share,
			strings.Repeat("#", int(p.Share*40)))
	}
	return b.String()
}
