// Package core runs the paper's experiments end to end: it assembles a
// topology, routing algorithm, traffic workload and switching technique
// into a simulation, applies the warmup / sampling / convergence
// methodology of section 3, and reports average message latency and
// normalized throughput for a given offered load.
package core

import (
	"fmt"
	"math"
	"runtime"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/saf"
	"wormsim/internal/stats"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// Switching selects the switching technique.
type Switching string

// The three switching techniques of the paper: wormhole everywhere,
// virtual cut-through in sec. 3.4, store-and-forward as the substrate the
// hop schemes derive from.
const (
	Wormhole   Switching = "wormhole"
	CutThrough Switching = "vct"
	StoreFwd   Switching = "saf"
)

// Config specifies one simulation point. The zero value is completed by
// ApplyDefaults to the paper's setup: a 16-ary 2-cube with 16-flit worms.
type Config struct {
	// K and N set the radix and dimension; Mesh selects a mesh instead of a
	// torus.
	K, N int
	Mesh bool
	// Algorithm is one of ecube, nlast, 2pn, phop, nhop, nbc.
	Algorithm string
	// Pattern is a traffic.Parse spec: uniform, hotspot[:frac[:node]],
	// local[:radius], transpose, bitrev, complement.
	Pattern string
	// Policy selects among free output VCs: random (default), first,
	// leastcongested.
	Policy string
	// Switching is wormhole (default), vct or saf.
	Switching Switching

	// OfferedLoad is the offered channel utilization rho (fraction of
	// capacity); the per-node injection rate lambda is derived from eq. (4):
	// lambda = rho * 2n / (MsgLen * meanDistance). If InjectionRate is set
	// it overrides the derivation.
	OfferedLoad   float64
	InjectionRate float64

	// MsgLen is the message length in flits (default 16).
	MsgLen int
	// BufDepth is the per-VC flit buffer depth for wormhole (default 4);
	// vct forces MsgLen.
	BufDepth int
	// CCLimit is the congestion-control per-class limit (default 2;
	// negative disables).
	CCLimit int
	// InjectionPorts caps concurrently injecting messages per node
	// (wormhole/vct only; default 2, negative = unlimited).
	InjectionPorts int
	// RouteDelay is the router pipeline latency in cycles per header hop
	// (wormhole/vct only; default 0, the paper's idealization).
	RouteDelay int

	Seed uint64

	// Methodology knobs, defaulted to match the paper's description scaled
	// to quick runs: WarmupCycles before measurement, SampleCycles per
	// sampling period, GapCycles of unmeasured traffic between periods with
	// fresh random streams.
	WarmupCycles int64
	SampleCycles int64
	GapCycles    int64
	MinSamples   int
	MaxSamples   int
	// Tolerance is the relative error bound of both convergence criteria
	// (default 0.05).
	Tolerance float64

	// Telemetry, when set, attaches a metrics/trace collector to the run and
	// fills Result.Telemetry / Result.TraceEvents (wormhole and vct engines
	// only; the saf engine has no flit-level channels to meter). The engine
	// builds a collector of its own from these options for every run, so a
	// shared Config stays safe for parallel sweeps.
	Telemetry *telemetry.Options `json:",omitempty"`
	// Forensics, when set, attaches the congestion forensics analyzer —
	// sampled wait-for graphs, root-cause blame attribution and per-worm
	// latency anatomy — and fills Result.Forensics (wormhole and vct
	// engines only). Like Telemetry, every run gets its own analyzer built
	// from these options, and attaching one is bit-identical to not
	// (TestForensicsRunIsBitIdentical).
	Forensics *forensics.Options `json:",omitempty"`
	// OnSample, if set, is called after every completed sampling period —
	// the live-progress hook behind the CLIs' -progress flag. Not part of
	// the persisted config.
	OnSample func(SampleEvent) `json:"-"`
	// OnTick, if set, is called every TickCycles simulated cycles (and once
	// more at the end of the run with Final set) with a self-contained copy
	// of the live engine state — the publication feed behind the CLIs'
	// -http observatory server. The hook only receives copies and must not
	// (and cannot, through the event) touch engine state, so an attached
	// observer never perturbs results. Wormhole and vct engines only.
	OnTick func(TickEvent) `json:"-"`
	// TickCycles is the publication period for OnTick (default 1000).
	TickCycles int64 `json:",omitempty"`
	// PhaseProf, if set, attributes engine wall time per pipeline phase
	// (see telemetry.PhaseProfiler). Shared across the runs of a sweep; its
	// accumulators are atomic. Not part of the persisted config.
	PhaseProf *telemetry.PhaseProfiler `json:"-"`
	// Cache, if set, is consulted by RunCached (and so by Sweep,
	// SweepObserved and SweepReplicated) before simulating: a hit returns
	// the stored Result without burning a single engine cycle, a miss runs
	// the point and records it. Simulations are pure functions of the
	// canonical config, so the cached and fresh paths are interchangeable —
	// see runstore.Store, the persistent implementation. Must be safe for
	// concurrent use by sweep workers. Not part of the persisted config.
	Cache ResultCache `json:"-"`
}

// ResultCache is the admission-control hook Sweep and friends consult
// before simulating: converged Results keyed by Config.Hash. Implementations
// must be safe for concurrent use (sweep workers hit them in parallel) and
// must return stored Results verbatim — the contract, pinned by
// runstore's bit-identity tests, is that a cache hit is indistinguishable
// from re-running the simulation.
type ResultCache interface {
	// Lookup returns the Result stored under hash, if any.
	Lookup(hash string) (Result, bool)
	// Store records a completed run under hash. cfg is the canonical config
	// the hash digests, for later inspection and comparison queries.
	Store(hash string, cfg Config, r Result) error
}

// TickEvent is one OnTick publication: the run's identity plus a deep copy
// of the observable engine state at one cycle. Everything in it is owned by
// the receiver — handing it to another goroutine is safe.
type TickEvent struct {
	// Identity of the run (the sweep CLI shares one hook across points).
	Algorithm   string
	Pattern     string
	Switching   Switching
	K, N        int
	Mesh        bool
	OfferedLoad float64
	Seed        uint64

	// Cycle is the engine clock; InFlight the number of live worms.
	Cycle    int64
	InFlight int
	// Counters are the run's cumulative totals.
	Counters network.Counters
	// Worms is the canonical in-flight model (network.WormStates).
	Worms []telemetry.WormState
	// ChannelFlits is the lifetime per-channel-slot flit transfer vector.
	ChannelFlits []int64
	// Telemetry is the collector summary when Config.Telemetry is set.
	Telemetry *telemetry.Summary
	// Forensics is the analyzer summary when Config.Forensics is set.
	Forensics *forensics.Summary
	// Events holds the lifecycle events recorded since the previous tick
	// (bounded to the most recent 64), when tracing is on.
	Events []telemetry.Event
	// Final marks the closing publication after the measurement loop.
	Final bool
}

// SampleEvent reports one completed sampling period to Config.OnSample.
type SampleEvent struct {
	// Sample counts completed periods; MaxSamples is the configured cap.
	Sample     int
	MaxSamples int
	// Mean and Bound are the period's stratified latency estimate and its
	// 95% error bound, in cycles.
	Mean  float64
	Bound float64
	// Done reports that the convergence rule terminated the run here.
	Done bool
}

// ApplyDefaults fills unset fields with the paper's defaults.
func (c *Config) ApplyDefaults() {
	if c.K == 0 {
		c.K = 16
	}
	if c.N == 0 {
		c.N = 2
	}
	if c.Algorithm == "" {
		c.Algorithm = "ecube"
	}
	if c.Pattern == "" {
		c.Pattern = "uniform"
	}
	if c.Policy == "" {
		c.Policy = "random" // GetPolicy treats "" and "random" alike; normalizing keeps Hash canonical
	}
	if c.Switching == "" {
		c.Switching = Wormhole
	}
	if c.MsgLen == 0 {
		c.MsgLen = 16
	}
	if c.BufDepth == 0 {
		c.BufDepth = 4
	}
	if c.Switching == CutThrough && c.BufDepth < c.MsgLen {
		c.BufDepth = c.MsgLen
	}
	if c.CCLimit == 0 {
		c.CCLimit = 2
	}
	if c.CCLimit < 0 {
		c.CCLimit = 0
	}
	if c.InjectionPorts == 0 {
		c.InjectionPorts = 2
	}
	if c.InjectionPorts < 0 {
		c.InjectionPorts = 0
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 5000
	}
	if c.SampleCycles == 0 {
		c.SampleCycles = 2000
	}
	if c.GapCycles == 0 {
		c.GapCycles = 500
	}
	if c.MinSamples == 0 {
		c.MinSamples = 3
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = 12
	}
	if c.Tolerance == 0 {
		c.Tolerance = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
}

// Grid builds the configured topology.
func (c *Config) Grid() *topology.Grid {
	if c.Mesh {
		return topology.NewMesh(c.K, c.N)
	}
	return topology.NewTorus(c.K, c.N)
}

// Result reports one simulation point. It marshals cleanly to JSON for
// external tooling.
type Result struct {
	// Echoes of the run's identity.
	Algorithm string
	Pattern   string
	Switching Switching
	K, N      int
	Mesh      bool

	// OfferedLoad is the requested rho; InjectionRate the lambda used;
	// MeanDistance the workload's exact mean hops.
	OfferedLoad   float64
	InjectionRate float64
	MeanDistance  float64

	// AvgLatency is the across-sample mean of the stratified per-sample
	// latency estimates, in cycles; LatencyBound the larger of the two
	// convergence bounds at termination.
	AvgLatency   float64
	LatencyBound float64
	// Throughput is the achieved normalized channel utilization, averaged
	// over samples.
	Throughput float64

	// Samples actually taken and whether both criteria were met before
	// MaxSamples.
	Samples   int
	Converged bool
	// Deadlocked is set when the watchdog fired; the other fields then
	// describe the run up to that point.
	Deadlocked bool
	Cycles     int64

	// Message accounting over the measured windows.
	Generated int64
	Admitted  int64
	Dropped   int64
	Delivered int64

	// Latency tail quantiles over all measured deliveries (cycles).
	LatencyP50 float64
	LatencyP95 float64
	LatencyP99 float64
	LatencyMax float64

	// HopClassLatency[i] is the mean latency of messages needing i hops
	// (-1 where unobserved); VCFlitShare[v] the fraction of flit transfers
	// on virtual-channel class v (wormhole/vct only).
	HopClassLatency []float64
	VCFlitShare     []float64
	// ChannelFlits holds lifetime flit transfers per dense channel slot
	// (wormhole/vct only); feed it to analysis.ChannelBalance or
	// viz.ChannelHeatmap.
	ChannelFlits stats.Counts `json:",omitempty"`

	// Telemetry aggregates the run's collector when Config.Telemetry was
	// set: per-channel utilization, head-blocked cycles, occupancy gauges.
	Telemetry *telemetry.Summary `json:",omitempty"`
	// Forensics aggregates the run's congestion forensics when
	// Config.Forensics was set: blame mass per channel, congestion-tree
	// shapes, wait-for cycle witnesses and per-class latency anatomy.
	Forensics *forensics.Summary `json:",omitempty"`
	// TraceEvents is the retained lifecycle trace (Config.Telemetry.Trace);
	// kept out of JSON — export with telemetry.WriteChromeTrace or
	// telemetry.WriteJSONL.
	TraceEvents []telemetry.Event `json:"-"`
}

// String renders a one-line summary.
func (r Result) String() string {
	state := "ok"
	if r.Deadlocked {
		state = "DEADLOCK"
	} else if !r.Converged {
		state = "max-samples"
	}
	return fmt.Sprintf("%-5s %-9s rho=%.2f lat=%7.1f+-%-5.1f thr=%.3f drops=%d [%s]",
		r.Algorithm, r.Pattern, r.OfferedLoad, r.AvgLatency, r.LatencyBound, r.Throughput, r.Dropped, state)
}

// stepper abstracts the two engines for the measurement loop.
type stepper interface {
	Step() error
	Reseed(seed uint64)
}

// safAdapter adds Reseed to the saf engine.
type safAdapter struct {
	*saf.Network
	wl traffic.Workload
}

func (a safAdapter) Reseed(seed uint64) { a.wl.Reseed(seed) }

// Run executes one simulation point.
func Run(cfg Config) (Result, error) {
	return runOn(new(network.Network), cfg)
}

// runOn is Run on a caller-supplied wormhole engine, re-initialised for the
// point (network.Reset): the sweeps hand every point the engine of the
// scheduler worker it runs on, so a grid of points builds one engine per
// worker instead of one per point. The Result is a function of cfg alone —
// what eng ran before cannot show (store-and-forward points leave it
// untouched).
func runOn(eng *network.Network, cfg Config) (Result, error) {
	cfg.ApplyDefaults()
	if cfg.K < 2 || cfg.N < 1 {
		return Result{}, fmt.Errorf("core: a %d-ary %d-cube needs radix k >= 2 and dimension n >= 1", cfg.K, cfg.N)
	}
	if cfg.MsgLen < 1 {
		return Result{}, fmt.Errorf("core: message length %d must be >= 1 flit", cfg.MsgLen)
	}
	g := cfg.Grid()
	alg, err := routing.Get(cfg.Algorithm)
	if err != nil {
		return Result{}, err
	}
	if err := alg.Compatible(g); err != nil {
		return Result{}, err
	}
	pattern, err := traffic.Parse(g, cfg.Pattern)
	if err != nil {
		return Result{}, err
	}
	policy, err := routing.GetPolicy(cfg.Policy)
	if err != nil {
		return Result{}, err
	}

	// Probe the pattern's mean distance with a zero-rate workload, then
	// derive lambda via eq. (4): rho = lambda * msgLen * meanDist / 2n. The
	// real workload is the probe with the rate set: the distance statistics
	// are a function of (grid, pattern), and enumerating them is the
	// dominant construction cost.
	probe := traffic.NewBernoulli(g, pattern, 0, cfg.Seed)
	meanDist := probe.MeanDistance()
	lambda := cfg.InjectionRate
	if lambda == 0 {
		if meanDist == 0 {
			return Result{}, fmt.Errorf("core: pattern %s generates no traffic", cfg.Pattern)
		}
		lambda = cfg.OfferedLoad * float64(2*g.N()) / (float64(cfg.MsgLen) * meanDist)
	}
	if !(lambda >= 0) { // NaN too
		return Result{}, fmt.Errorf("core: injection rate %.3g must be >= 0 (offered load %.3g)", lambda, cfg.OfferedLoad)
	}
	if lambda > 1 {
		return Result{}, fmt.Errorf("core: offered load %.3g needs injection rate %.3g > 1 message/node/cycle", cfg.OfferedLoad, lambda)
	}
	wl := probe.WithRate(lambda, cfg.Seed)

	res := Result{
		Algorithm:     cfg.Algorithm,
		Pattern:       cfg.Pattern,
		Switching:     cfg.Switching,
		K:             cfg.K,
		N:             cfg.N,
		Mesh:          cfg.Mesh,
		OfferedLoad:   cfg.OfferedLoad,
		InjectionRate: lambda,
		MeanDistance:  meanDist,
	}

	// The delivery hook routes latencies into the current sample's
	// stratified estimator (nil outside measured windows).
	var sample *stats.Stratified
	hopStats := make([]stats.Welford, g.Diameter()+1)
	var latHist stats.Histogram
	onDeliver := func(m *message.Message) {
		if sample != nil {
			sample.Add(m.HopsTotal, float64(m.Latency()))
			hopStats[m.HopsTotal].Add(float64(m.Latency()))
			latHist.Add(float64(m.Latency()))
		}
	}

	var st stepper
	var wn *network.Network
	var sn *saf.Network
	switch cfg.Switching {
	case Wormhole, CutThrough:
		err = eng.Reset(network.Config{
			Grid: g, Algorithm: alg, Policy: policy, Workload: wl,
			MsgLen: cfg.MsgLen, BufDepth: cfg.BufDepth, CCLimit: cfg.CCLimit,
			InjectionPorts: cfg.InjectionPorts, RouteDelay: cfg.RouteDelay,
			Seed: cfg.Seed, OnDeliver: onDeliver, Telemetry: cfg.Telemetry, Phases: cfg.PhaseProf,
			Forensics: cfg.Forensics,
		})
		if err != nil {
			return res, err
		}
		wn = eng
		st = wn
	case StoreFwd:
		sn, err = saf.New(saf.Config{
			Grid: g, Algorithm: alg, Policy: policy, Workload: wl,
			MsgLen: cfg.MsgLen, CCLimit: cfg.CCLimit,
			Seed: cfg.Seed, OnDeliver: onDeliver,
		})
		if err != nil {
			return res, err
		}
		st = safAdapter{sn, wl}
	default:
		return res, fmt.Errorf("core: unknown switching %q", cfg.Switching)
	}

	// The tick publication: every tickGap cycles OnTick receives a deep copy
	// of the observable state (wormhole/vct only — the saf engine has no
	// flit-level channels to publish).
	var tickGap, sinceTick, lastRecorded int64
	if cfg.OnTick != nil && wn != nil {
		tickGap = cfg.TickCycles
		if tickGap <= 0 {
			tickGap = 1000
		}
	}
	emitTick := func(final bool) {
		tel, fore := wn.Observers()
		events, next := wn.Trace(lastRecorded, 64)
		lastRecorded = next
		cfg.OnTick(TickEvent{
			Algorithm: cfg.Algorithm, Pattern: cfg.Pattern, Switching: cfg.Switching,
			K: cfg.K, N: cfg.N, Mesh: cfg.Mesh, OfferedLoad: cfg.OfferedLoad, Seed: cfg.Seed,
			Cycle: wn.Now(), InFlight: wn.InFlight(),
			Counters:     wn.Total(),
			Worms:        wn.WormStates(),
			ChannelFlits: wn.ChannelFlitCounts(),
			Telemetry:    tel,
			Forensics:    fore,
			Events:       events,
			Final:        final,
		})
	}
	runFor := func(cycles int64) error {
		for i := int64(0); i < cycles; i++ {
			if err := st.Step(); err != nil {
				return err
			}
			if tickGap > 0 {
				if sinceTick++; sinceTick >= tickGap {
					sinceTick = 0
					emitTick(false)
				}
			}
		}
		return nil
	}

	weights := wl.HopClassWeights()
	conv := &stats.Convergence{MinSamples: cfg.MinSamples, MaxSamples: cfg.MaxSamples, Tolerance: cfg.Tolerance}
	var thr stats.Welford
	var deadlock error

	finish := func() {
		res.Cycles = cfgCycles(cfg, conv.Samples())
		if wn != nil {
			t := wn.Total()
			res.Generated, res.Admitted, res.Dropped, res.Delivered = t.Generated, t.Admitted, t.Dropped, t.Delivered
			if t.FlitMoves > 0 {
				res.VCFlitShare = make([]float64, len(t.FlitMovesByClass))
				for i, f := range t.FlitMovesByClass {
					res.VCFlitShare[i] = float64(f) / float64(t.FlitMoves)
				}
			}
		} else {
			res.Generated, res.Admitted, res.Dropped, res.Delivered = sn.Counts()
		}
		res.HopClassLatency = make([]float64, len(hopStats))
		for i := range hopStats {
			if hopStats[i].Count() == 0 {
				res.HopClassLatency[i] = -1 // unobserved (JSON has no NaN)
			} else {
				res.HopClassLatency[i] = hopStats[i].Mean()
			}
		}
		if wn != nil {
			res.ChannelFlits = wn.ChannelFlitCounts()
			res.Telemetry, res.Forensics = wn.Observers()
			res.TraceEvents, _ = wn.Trace(0, 0)
		}
		res.Samples = conv.Samples()
		res.Throughput = thr.Mean()
		if latHist.Count() > 0 {
			q := latHist.Quantiles(0.5, 0.95, 0.99)
			res.LatencyP50, res.LatencyP95, res.LatencyP99 = q[0], q[1], q[2]
			res.LatencyMax = latHist.Max()
		}
		if tickGap > 0 {
			emitTick(true)
		}
	}

	if err := runFor(cfg.WarmupCycles); err != nil {
		deadlock = err
	}
	var lastBound float64
	for deadlock == nil {
		sample = stats.NewStratified(weights)
		if wn != nil {
			wn.ResetWindow()
		}
		startMoves, startCycles := engineWindow(wn, sn)
		if err := runFor(cfg.SampleCycles); err != nil {
			deadlock = err
			break
		}
		endMoves, endCycles := engineWindow(wn, sn)
		if endCycles > startCycles {
			thr.Add(float64(endMoves-startMoves) / (float64(endCycles-startCycles) * float64(g.NumChannels())))
		}
		conv.Record(sample.Mean())
		lastBound = sample.ErrorBound()
		done := conv.Done(sample)
		if cfg.OnSample != nil {
			cfg.OnSample(SampleEvent{
				Sample: conv.Samples(), MaxSamples: cfg.MaxSamples,
				Mean: sample.Mean(), Bound: lastBound, Done: done,
			})
		}
		sample = nil
		if done {
			res.Converged = conv.Samples() < cfg.MaxSamples
			break
		}
		// Unmeasured gap with fresh random streams, per the paper.
		st.Reseed(cfg.Seed + uint64(conv.Samples())*0x9e3779b97f4a7c15)
		if err := runFor(cfg.GapCycles); err != nil {
			deadlock = err
			break
		}
	}

	acrossBound, acrossMean := conv.AcrossSampleBound()
	res.AvgLatency = acrossMean
	res.LatencyBound = math.Max(lastBound, acrossBound)
	if math.IsInf(res.LatencyBound, 1) {
		res.LatencyBound = lastBound
	}
	finish()
	if deadlock != nil {
		res.Deadlocked = true
		res.Converged = false
		return res, deadlock
	}
	return res, nil
}

// engineWindow reads cumulative flit moves and cycles from whichever engine
// is active.
func engineWindow(wn *network.Network, sn *saf.Network) (moves, cycles int64) {
	if wn != nil {
		t := wn.Total()
		return t.FlitMoves, t.Cycles
	}
	return sn.FlitMoves(), sn.Now()
}

// cfgCycles estimates cycles simulated for reporting.
func cfgCycles(cfg Config, samples int) int64 {
	return cfg.WarmupCycles + int64(samples)*(cfg.SampleCycles+cfg.GapCycles)
}

// RunCached executes one simulation point through cfg.Cache: a hit returns
// the stored Result with zero engine cycles, a miss runs the point and
// stores it. hit reports which path was taken. With no cache attached it is
// exactly Run. Configs that retain a lifecycle trace bypass the cache both
// ways (TraceEvents are deliberately not persisted, so a cached Result
// could not honor them).
//
// Cached deadlocked points return their recorded Result with a nil error:
// the deadlock is a deterministic property of the config, already fully
// described by Result.Deadlocked, and the original engine error (a
// network.DeadlockError with live worm state) cannot outlive the run that
// produced it. Callers following the Sweep convention — check
// Result.Deadlocked, not just err — behave identically on both paths.
func RunCached(cfg Config) (r Result, hit bool, err error) {
	return runCachedOn(new(network.Network), cfg)
}

// runCachedOn is RunCached with misses simulated on eng (see runOn).
func runCachedOn(eng *network.Network, cfg Config) (r Result, hit bool, err error) {
	if cfg.Cache == nil || (cfg.Telemetry != nil && cfg.Telemetry.Trace) {
		r, err = runOn(eng, cfg)
		return r, false, err
	}
	hash := cfg.Hash()
	if r, ok := cfg.Cache.Lookup(hash); ok {
		return r, true, nil
	}
	r, err = runOn(eng, cfg)
	if err != nil && !r.Deadlocked {
		return r, false, err
	}
	if serr := cfg.Cache.Store(hash, cfg.Canonical(), r); serr != nil {
		return r, false, fmt.Errorf("core: record run %s: %w", hash[:12], serr)
	}
	return r, false, err
}

// Sweep runs cfg at each offered load, in parallel across the machine's
// cores (each individual simulation is single-threaded and deterministic,
// so the results are identical to a sequential sweep). Results come back in
// load order. Deadlocks are recorded in their Result rather than aborting
// the sweep; any other error aborts.
func Sweep(cfg Config, loads []float64) ([]Result, error) {
	return SweepN(cfg, loads, runtime.GOMAXPROCS(0)) //lint:allow purity (worker count only sets parallelism; results are bit-identical at any width, test-pinned)
}

// SweepN is Sweep with an explicit worker count (minimum 1).
func SweepN(cfg Config, loads []float64, workers int) ([]Result, error) {
	return SweepObserved(cfg, loads, workers, nil)
}

// SweepObserved is SweepN with a completion callback: onDone is invoked once
// per finished point with its load index and result, from the finishing
// worker's goroutine (the callback must be safe for concurrent use —
// telemetry.Progress is). It backs the CLIs' -progress flag. The points run
// on a Scheduler; Config hooks (OnSample, OnTick, a shared PhaseProf) fire
// from whichever worker runs the point, so shared hooks must be safe for
// concurrent use. Every point runs on its worker's recycled engine.
func SweepObserved(cfg Config, loads []float64, workers int, onDone func(i int, r Result)) ([]Result, error) {
	results := make([]Result, len(loads))
	err := each(workers, len(loads), func(eng *network.Network, i int) error {
		var err error
		results[i], err = sweepPoint(eng, cfg, loads[i])
		if onDone != nil {
			onDone(i, results[i])
		}
		return err
	})
	return results, err
}

// sweepPoint runs cfg at one offered load on eng under the Sweep convention:
// a deadlock is recorded in the Result, any other error is returned.
func sweepPoint(eng *network.Network, cfg Config, load float64) (Result, error) {
	cfg.OfferedLoad = load
	r, _, err := runCachedOn(eng, cfg)
	if err != nil && !r.Deadlocked {
		return r, fmt.Errorf("core: sweep at rho=%.3g: %w", load, err)
	}
	return r, nil
}

// PeakThroughput returns the maximum achieved throughput in results and the
// offered load where it occurred.
func PeakThroughput(results []Result) (peak, atLoad float64) {
	for _, r := range results {
		if r.Throughput > peak {
			peak, atLoad = r.Throughput, r.OfferedLoad
		}
	}
	return peak, atLoad
}
