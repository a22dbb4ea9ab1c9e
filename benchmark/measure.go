package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/observatory"
	"wormsim/internal/runstore"
	"wormsim/internal/telemetry"
)

// options are the knobs of one benchmark run. main fills them from flags
// and the paper's sizes; the test shrinks k and the repetition counts.
type options struct {
	k    int
	m    method
	seed uint64
	// seconds is the measuring budget. warmSeconds of it go to the warm
	// reruns and repeated set-ups (at least minReps of each); after the
	// first cold round, another starts only if it is expected to finish
	// inside the rest.
	seconds     float64
	warmSeconds float64
	maxRounds   int
	minReps     int
	// scratch is the directory run stores are created under.
	scratch string
	// digests pins the seed-1 result digest per workload; nil skips the
	// comparison (any other seed, and the 4x4 test grid).
	digests map[string]string
	// traceFile, when set, selects the traced per-layer run.
	traceFile string
}

// now and since are the harness's only wall-clock reads besides the tracer.
func now() time.Time {
	return time.Now()
}

func since(t time.Time) time.Duration {
	return time.Since(t)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// observer is the fig4_observed attachment: an observatory publisher fed by
// Config.OnTick and one in-process subscriber draining its frames, standing
// in for an SSE client.
type observer struct {
	pub    *observatory.Publisher
	cancel func()
	done   chan struct{}
	frames int64 // owned by the drain goroutine until done closes
}

func newObserver() *observer {
	o := &observer{pub: observatory.NewPublisher(), done: make(chan struct{})}
	ch, cancel := o.pub.Subscribe() //lint:allow hookguard (the observer owns its publisher; never nil)
	o.cancel = cancel
	go func() {
		defer close(o.done)
		for range ch {
			o.frames++
		}
	}()
	return o
}

// stop unsubscribes, waits for the drain goroutine and returns the frames it
// received and the frames the publisher dropped.
func (o *observer) stop() (frames, dropped int64) {
	o.cancel()
	<-o.done
	return o.frames, o.pub.DroppedFrames() //lint:allow hookguard (the observer owns its publisher; never nil)
}

// env is everything set-up builds before the first timed unit.
type env struct {
	units []unit
	dir   string // holds one run-store directory per round
	store *runstore.Store
	obs   *observer // nil unless the workload is observed
}

func (e *env) onTick() func(core.TickEvent) {
	if e.obs == nil {
		return nil
	}
	return e.obs.pub.PublishTick
}

func (e *env) close() {
	if e.obs != nil {
		e.obs.stop()
		e.obs = nil
	}
	e.store.Close()
	os.RemoveAll(e.dir)
}

// setUp is what setup_s times: grid expansion, the temporary store, the
// publisher and subscriber, and one untimed 4x4 point that faults in code
// and lazy initialisation.
func setUp(sp spec, o options) (*env, error) {
	e := &env{units: sp.units(o.k, o.m, o.seed)}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("benchmark: scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(o.scratch, sp.name+"-")
	if err != nil {
		return nil, fmt.Errorf("benchmark: scratch directory: %w", err)
	}
	e.dir = dir
	if e.store, err = runstore.Open(filepath.Join(dir, "round0")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if sp.observed {
		e.obs = newObserver()
	}
	warm := sp.units(4, o.m, o.seed)[0]
	if warm.seeds != nil {
		warm.loads, warm.seeds = warm.loads[:1], warm.seeds[:2] // one small batch is enough to fault the batch engine in
	}
	if _, err := warm.run(hooks{onTick: e.onTick(), workers: workers()}); err != nil {
		e.close()
		return nil, fmt.Errorf("benchmark: warm-up point: %w", err)
	}
	return e, nil
}

// probe holds the traced round's instruments and what they collected.
type probe struct {
	tr   *tracer
	prof *telemetry.PhaseProfiler
	root int // the workload span
	// phaseNs[u][p] and steps[u] are unit u's engine wall time per phase
	// and stepped cycles, from PhaseProfiler snapshots around the unit.
	phaseNs  [][]int64
	steps    []int64
	heapPeak uint64
}

// roundData is one pass over the workload's units.
type roundData struct {
	wall, cpu []float64 // seconds per unit
	results   [][]core.Result
	allocMB   float64
	mallocs   uint64
}

func (rd roundData) flat() []core.Result {
	var out []core.Result
	for _, rs := range rd.results {
		out = append(out, rs...)
	}
	return out
}

// runRound times every unit of the workload once, through cache. pr is nil
// for the untraced rounds the end-to-end metrics come from.
func runRound(e *env, cache core.ResultCache, pr *probe) (roundData, error) {
	n := len(e.units)
	rd := roundData{wall: make([]float64, n), cpu: make([]float64, n), results: make([][]core.Result, n)}
	h := hooks{cache: cache, onTick: e.onTick(), workers: workers()}
	parallel := e.units[0].seeds != nil
	if pr != nil {
		h.prof = pr.prof
		pr.phaseNs, pr.steps = make([][]int64, n), make([]int64, n)
	}
	runtime.GC() // start every round from the same heap state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, u := range e.units {
		var sp int
		var before telemetry.PhaseSnapshot
		if pr != nil {
			name := "core.run_cached"
			if parallel {
				name = "core.sweep_replicated"
			}
			sp = pr.tr.begin(name, u.id, pr.root)
			before = pr.prof.Snapshot() //lint:allow hookguard (a probe always carries a profiler)
		}
		w0, c0 := now(), cpuSeconds()
		res, err := u.run(h)
		rd.wall[i], rd.cpu[i] = since(w0).Seconds(), cpuSeconds()-c0
		if err != nil {
			return rd, fmt.Errorf("benchmark: %s: %w", u.label, err)
		}
		rd.results[i] = res
		if pr != nil {
			pr.tr.end(sp)
			pr.enginePhases(i, sp, before, parallel)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > pr.heapPeak {
				pr.heapPeak = ms.HeapInuse
			}
		}
	}
	runtime.ReadMemStats(&m1)
	rd.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	rd.mallocs = m1.Mallocs - m0.Mallocs
	return rd, nil
}

// enginePhases records unit u's engine time per phase and lays the totals
// out as synthetic child spans of its point span sp: end to end from the
// point's start, never past its end.
func (pr *probe) enginePhases(u, sp int, before telemetry.PhaseSnapshot, parallel bool) {
	after := pr.prof.Snapshot() //lint:allow hookguard (a probe always carries a profiler)
	pr.steps[u] = after.Cycles - before.Cycles
	pr.phaseNs[u] = make([]int64, len(after.Phases))
	point := pr.tr.spans[sp]
	at, limit, tid := point.start, point.end, trackMain
	if parallel { // summed over workers: longer than the sweep's wall time, so on a track of its own
		limit, tid = 1<<62, trackEngine
	}
	for p := range after.Phases {
		ns := after.Phases[p].Nanos - before.Phases[p].Nanos
		pr.phaseNs[u][p] = ns
		end := at + time.Duration(ns)
		if end > limit {
			end = limit
		}
		pr.tr.add(span{name: "network." + after.Phases[p].Phase, id: point.id, parent: sp, tid: tid, start: at, end: end, synthetic: true})
		at = end
	}
}

// warmRun reruns the whole workload once through the store in dir, {Open,
// every unit, Close}, and returns the wall milliseconds of the repetition
// and of its Open alone. The repetition must be all hits; its Results are
// returned for the cold-vs-warm check.
func warmRun(e *env, dir string) (wallMs, openMs float64, results []core.Result, err error) {
	points := 0
	for _, u := range e.units {
		points += u.points()
	}
	t0 := now()
	st, err := runstore.Open(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	openMs = since(t0).Seconds() * 1e3
	h := hooks{cache: st, onTick: e.onTick(), workers: workers()}
	for _, u := range e.units {
		res, err := u.run(h)
		if err != nil {
			st.Close()
			return 0, 0, nil, fmt.Errorf("benchmark: warm %s: %w", u.label, err)
		}
		results = append(results, res...)
	}
	if err := st.Close(); err != nil {
		return 0, 0, nil, fmt.Errorf("benchmark: close warm store: %w", err)
	}
	wallMs = since(t0).Seconds() * 1e3
	if st.Hits() != int64(points) || st.Misses() != 0 {
		return 0, 0, nil, fmt.Errorf("benchmark: warm rerun had %d hits and %d misses, want %d and 0", st.Hits(), st.Misses(), points)
	}
	return wallMs, openMs, results, nil
}

// warmPhase alternates one more set-up (timed, then thrown away) with one
// warm rerun through the store in dir, for o.warmSeconds and at least
// o.minReps times. Both operations take milliseconds, about as long as the
// host takes a core away for when it is shared, so what steadies them is the
// length of the window their repetitions are spread over, not their number:
// the minimum of ten seconds of repetitions repeats, that of one second does
// not.
func warmPhase(sp spec, o options, e *env, dir string) (setupS, warmMs []float64, last []core.Result, err error) {
	start := now()
	for rep := 0; rep < o.minReps || since(start).Seconds() < o.warmSeconds; rep++ {
		t0 := now()
		again, err := setUp(sp, o)
		if err != nil {
			return nil, nil, nil, err
		}
		setupS = append(setupS, since(t0).Seconds())
		again.close()
		ms, _, res, err := warmRun(e, dir)
		if err != nil {
			return nil, nil, nil, err
		}
		warmMs, last = append(warmMs, ms), res
	}
	return setupS, warmMs, last, nil
}

// verify runs the checks behind failed_share on the cold rounds and the
// warm rerun. rounds[0] is the reference.
func verify(sp spec, o options, rounds []roundData, warm []core.Result) (*checker, error) {
	cold := rounds[0].flat()
	ck := newChecker(len(cold))
	for i, r := range cold {
		ck.invariants(i, r, o.m)
	}
	for r := 1; r < len(rounds); r++ {
		ck.same(fmt.Sprintf("round %d vs round 0", r), cold, rounds[r].flat())
	}
	ck.same("warm vs cold", cold, warm)
	var err error
	if ck.digest, err = digest(cold); err != nil {
		return nil, err
	}
	if want, ok := o.digests[sp.name]; ok && ck.digest != want {
		ck.fail(0, "result digest %s, pinned %s (a deliberate model change re-pins benchmark/digests.json in its own PR)", ck.digest, want)
	}
	return ck, nil
}
