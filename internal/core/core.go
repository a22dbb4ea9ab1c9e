// Package core runs the paper's experiments end to end: it assembles a
// topology, routing algorithm, traffic workload and switching technique
// (wormhole or virtual cut-through) into a simulation on the flit-level
// engine, applies the warmup / sampling / convergence methodology of
// section 3, and reports average message latency and normalized throughput
// for a given offered load.
package core

import (
	"fmt"
	"strings"
	"sync"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/stats"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// Switching selects the switching technique.
type Switching string

// The two switching techniques the engine implements: wormhole everywhere,
// virtual cut-through in sec. 3.4. (Store-and-forward, the substrate the
// hop schemes derive from, enters only through Lemma 1's premise, which
// the routing tests and the CDG certificates check directly.)
const (
	Wormhole   Switching = "wormhole"
	CutThrough Switching = "vct"
)

// Check returns an error unless s names a switching technique the engine
// implements; "" is wormhole, the default. Config.Check applies it, so a
// stored record of a retired technique is never served.
func (s Switching) Check() error {
	switch s {
	case "", Wormhole, CutThrough:
		return nil
	}
	return fmt.Errorf("core: unknown switching %q (want %s or %s)", s, Wormhole, CutThrough)
}

// Config specifies one simulation point. The zero value is completed by
// ApplyDefaults to the paper's setup: a 16-ary 2-cube with 16-flit worms.
type Config struct {
	// K and N set the radix and dimension; Mesh selects a mesh instead of a
	// torus.
	K, N int
	Mesh bool
	// Algorithm is a routing.Names() entry: the paper's ecube, nlast, 2pn,
	// phop, nhop, nbc, or the family members ecube2x, ecube4x, wfirst,
	// negfirst, 2pnsrc.
	Algorithm string
	// Pattern is a traffic.Parse spec: uniform, hotspot[:frac[:node]],
	// local[:radius], transpose, bitrev, complement, tornado, shuffle.
	Pattern string
	// Policy selects among free output VCs: random (default), first,
	// leastcongested.
	Policy string
	// Switching is wormhole (default) or vct.
	Switching Switching

	// OfferedLoad is the offered channel utilization rho (fraction of
	// capacity); the per-node injection rate lambda is derived from eq. (4):
	// lambda = rho * 2n / (MsgLen * meanDistance). If InjectionRate is set
	// it overrides the derivation, and OfferedLoad is ignored.
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
	// (default 2, negative = unlimited).
	InjectionPorts int
	// RouteDelay is the router pipeline latency in cycles per header hop
	// (default 0, the paper's idealization).
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
	// fills Result.Telemetry / Result.TraceEvents. Each engine Resets a
	// collector of its own from these options for every run, so a shared
	// Config stays safe for parallel sweeps.
	Telemetry *telemetry.Options `json:",omitempty"`
	// Forensics, when set, attaches the congestion forensics analyzer —
	// sampled wait-for graphs, root-cause blame attribution and per-worm
	// latency anatomy — and fills Result.Forensics. Like Telemetry, every
	// run gets its engine's analyzer Reset from these options, and attaching
	// one is bit-identical to not (TestForensicsRunIsBitIdentical).
	Forensics *forensics.Options `json:",omitempty"`
	// OnSample, if set, is called after every completed sampling period —
	// the live-progress hook behind the CLIs' -progress flag. Not part of
	// the persisted config.
	OnSample func(SampleEvent) `json:"-"`
	// OnTick, if set, is called every TickCycles simulated cycles (and once
	// more at the end of the run with Final set) with the run's counters and
	// a TickEvent.Load that copies the bulk engine state during the call —
	// the publication feed behind the CLIs' -http observatory server. The
	// hook only receives copies and cannot touch engine state through the
	// event, so an attached observer never perturbs results.
	OnTick func(TickEvent) `json:"-"`
	// TickCycles is the publication period for OnTick (default 1000).
	TickCycles int64 `json:",omitempty"`
	// PhaseProf, if set, attributes engine wall time per pipeline phase
	// (see telemetry.PhaseProfiler). Shared across the runs of a sweep; its
	// accumulators are atomic. Not part of the persisted config.
	PhaseProf *telemetry.PhaseProfiler `json:"-"`
	// Cache, if set, is consulted by RunCached (and so by RunFigure and
	// SweepReplicated) before simulating: a hit returns the stored Result
	// without burning a single engine cycle, a miss runs the point and
	// records it. Simulations are pure functions of the
	// canonical config, so the cached and fresh paths are interchangeable —
	// see runstore.Store, the persistent implementation. Must be safe for
	// concurrent use by sweep workers. Not part of the persisted config.
	Cache ResultCache `json:"-"`
}

// ResultCache is the admission-control hook RunCached and the grids consult
// before simulating: converged Results keyed by Config.Hash. Implementations
// must be safe for concurrent use (sweep workers hit them in parallel) and
// must return stored Results verbatim — the contract, pinned by
// runstore's bit-identity tests, is that a cache hit is indistinguishable
// from re-running the simulation.
type ResultCache interface {
	// Lookup returns the Result stored under hash, if any. Its slices and
	// pointers may be shared with the cache's own copy: callers read them
	// and never write through them.
	Lookup(hash string) (Result, bool)
	// Store records a completed run under hash. cfg is the canonical config
	// the hash digests, for later inspection and comparison queries.
	Store(hash string, cfg Config, r Result) error
}

// TickEvent is one OnTick publication: the run's identity and counters at
// one cycle, with the bulk engine state loaded on demand. The cheap fields —
// identity, Cycle, InFlight, Counters, Blame, Events and Final — are filled
// on every tick and owned by the receiver: handing them to another goroutine
// is safe. The bulk fields — Worms, ChannelFlits, Telemetry and Forensics —
// are the only borrowed part: they stay nil until Load copies them, and Load
// works only while the OnTick call that delivered the event runs. The final
// tick of a run arrives loaded.
type TickEvent struct {
	// Identity of the run (a grid shares one hook across points).
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
	// Blame is the head of the forensics summary (attribution totals and the
	// four heaviest root channels) when Config.Forensics is set.
	Blame *forensics.Head `json:",omitempty"`
	// Events holds the lifecycle events recorded since the previous tick
	// (bounded to the most recent 64), when tracing is on.
	Events []telemetry.Event
	// Final marks the closing publication after the measurement loop.
	Final bool

	// Worms is the canonical in-flight model (network.WormStates).
	Worms []telemetry.WormState
	// ChannelFlits is the lifetime per-channel-slot flit transfer vector.
	ChannelFlits []int64
	// Telemetry is the collector summary when Config.Telemetry is set.
	Telemetry *telemetry.Summary
	// Forensics is the analyzer summary when Config.Forensics is set.
	Forensics *forensics.Summary

	// src and seq let Load reach the engine during the tick's OnTick call.
	src *tickSource
	seq uint64
}

// Load fills ev's bulk fields with copies of the engine state at ev.Cycle.
// It does so only during the OnTick call that delivered ev (or a copy of
// it), from any goroutine; after that call returns, on an event already
// loaded, or on an event built by hand, it does nothing.
func (ev *TickEvent) Load() {
	s := ev.src
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open != ev.seq {
		return
	}
	ev.src = nil
	ev.Worms = s.wn.WormStates()
	ev.ChannelFlits = s.wn.ChannelFlitCounts()
	ev.Telemetry, ev.Forensics = s.wn.Observers()
}

// Loaded reports whether ev carries bulk state: it was loaded, is a final
// tick, or was built by hand with a bulk field set.
func (ev *TickEvent) Loaded() bool {
	return ev.Worms != nil || ev.ChannelFlits != nil || ev.Telemetry != nil || ev.Forensics != nil
}

// tickSource is the engine one run's ticks load from. open is the sequence
// number of the tick whose OnTick call is running, 0 between calls; mu
// orders a Load from another goroutine against the engine's next step.
type tickSource struct {
	mu   sync.Mutex
	wn   *network.Network
	open uint64
	last uint64
}

// deliver hands ev to hook with Load enabled for the length of the call,
// loading it first when it is the run's final tick.
func (s *tickSource) deliver(hook func(TickEvent), ev TickEvent) {
	s.mu.Lock()
	s.last++
	s.open = s.last
	s.mu.Unlock()
	ev.src, ev.seq = s, s.last
	if ev.Final {
		ev.Load()
	}
	hook(ev)
	s.mu.Lock()
	s.open = 0
	s.mu.Unlock()
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
func (c *Config) Grid() *topology.Grid { return topology.New(c.K, c.N, c.Mesh) }

// Result reports one simulation point. It marshals cleanly to JSON for
// external tooling.
type Result struct {
	// Echoes of the run's identity.
	Algorithm string
	Pattern   string
	Switching Switching
	K, N      int
	Mesh      bool

	// OfferedLoad is the rho offered: the requested one, or eq. (4) applied
	// to an explicit InjectionRate. InjectionRate is the lambda used;
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

	// Message accounting over the whole run, warm-up and unmeasured gaps
	// included, not only the measured windows.
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
	// on virtual-channel class v.
	HopClassLatency []float64
	VCFlitShare     []float64
	// ChannelFlits holds lifetime flit transfers per dense channel slot;
	// feed it to analysis.ChannelBalance or viz.ChannelHeatmap.
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

// State labels how the point ended: "deadlock" when the watchdog stopped
// it, "max-samples" when it took every allowed sample without converging,
// and "ok" otherwise. Every writer that marks a point's state uses it.
func (r Result) State() string {
	switch {
	case r.Deadlocked:
		return "deadlock"
	case !r.Converged:
		return "max-samples"
	}
	return "ok"
}

// String renders a one-line summary; a deadlock is shouted.
func (r Result) String() string {
	state := r.State()
	if r.Deadlocked {
		state = strings.ToUpper(state)
	}
	return fmt.Sprintf("%-5s %-9s rho=%.2f lat=%7.1f+-%-5.1f thr=%.3f drops=%d [%s]",
		r.Algorithm, r.Pattern, r.OfferedLoad, r.AvgLatency, r.LatencyBound, r.Throughput, r.Dropped, state)
}

// engines holds the wormhole engines idle between runs, most recently used
// last. Run is the only function that reads or writes it. It has no size
// cap: idle engines never outnumber the most runs that were ever in flight
// at once.
var engines struct {
	sync.Mutex
	idle []*network.Network
}

// Run executes one simulation point on an engine recycled from an earlier
// point, or on a new one if none is idle, so a caller running points one
// after another, or a sweep's workers, re-use engines instead of building one
// per point. The engine goes back to the pool whether the run succeeded,
// deadlocked or failed, since Reset re-initialises any state such a run
// leaves; a run that panics drops it.
func Run(cfg Config) (Result, error) {
	var eng *network.Network
	engines.Lock()
	if n := len(engines.idle); n > 0 {
		eng, engines.idle = engines.idle[n-1], engines.idle[:n-1] //lint:allow purity (engine free list; Reset leaves a recycled engine indistinguishable from a new one, test-pinned)
	}
	engines.Unlock()
	if eng == nil {
		eng = new(network.Network)
	}
	r, err := runOn(eng, cfg)
	engines.Lock()
	engines.idle = append(engines.idle, eng) //lint:allow purity (engine free list; Reset leaves a recycled engine indistinguishable from a new one, test-pinned)
	engines.Unlock()
	return r, err
}

// sampleSeed is what a run seeded seed reseeds its engine with before
// sample k's gap: seed + k·G, G the 64-bit golden ratio. Replicas of a
// point are seeded seed + r (ReplicaSeeds), so replica r's reseeds
// seed + r + k·G never meet another replica's seeds; a replica stride of G
// would make replica r's sample k replay replica r-1's sample k+1.
func sampleSeed(seed uint64, k int) uint64 { return seed + uint64(k)*0x9e3779b97f4a7c15 }

// ReplicaSeeds returns the seeds of n independent replicas of a point
// seeded seed: seed + r for replica r.
func ReplicaSeeds(seed uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for r := range seeds {
		seeds[r] = seed + uint64(r)
	}
	return seeds
}

// MaxNodes bounds the network a config may ask for: k^n nodes at most.
const MaxNodes = 65536

// Check applies the defaults to a copy of c and returns an error unless the
// engine can build the result: a switching technique it implements
// (Switching.Check), a radix k >= 2, a dimension n >= 1, messages of at
// least one flit, and at most MaxNodes nodes, with k^n computed so that it
// cannot overflow. It is the one admission rule: Run refuses a config it
// rejects before anything is allocated, and RunCached and the observatory's
// run API refuse one before they consult a store or queue a run.
func (c Config) Check() error {
	c.ApplyDefaults()
	if err := c.Switching.Check(); err != nil {
		return err
	}
	if c.K < 2 || c.N < 1 {
		return fmt.Errorf("core: a %d-ary %d-cube needs radix k >= 2 and dimension n >= 1", c.K, c.N)
	}
	if c.MsgLen < 1 {
		return fmt.Errorf("core: message length %d must be >= 1 flit", c.MsgLen)
	}
	for nodes, i := 1, 0; i < c.N; i++ {
		if nodes > MaxNodes/c.K {
			return fmt.Errorf("core: a %d-ary %d-cube has more than %d nodes", c.K, c.N, MaxNodes)
		}
		nodes *= c.K
	}
	return nil
}

// runOn is Run on a caller-supplied engine, re-initialised for the point
// (network.Reset). The Result is a function of cfg alone — what eng ran
// before cannot show, and no part of the Result aliases eng's memory.
func runOn(eng *network.Network, cfg Config) (Result, error) {
	if err := cfg.Check(); err != nil {
		return Result{}, err
	}
	cfg.ApplyDefaults()
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
	rho, lambda := cfg.OfferedLoad, cfg.InjectionRate
	if lambda == 0 {
		if meanDist == 0 {
			return Result{}, fmt.Errorf("core: pattern %s generates no traffic", cfg.Pattern)
		}
		lambda = rho * float64(2*g.N()) / (float64(cfg.MsgLen) * meanDist)
	} else {
		rho = lambda * float64(cfg.MsgLen) * meanDist / float64(2*g.N())
	}
	if !(lambda >= 0) { // NaN too
		return Result{}, fmt.Errorf("core: injection rate %.3g must be >= 0 (offered load %.3g)", lambda, rho)
	}
	if lambda > 1 {
		return Result{}, fmt.Errorf("core: offered load %.3g needs injection rate %.3g > 1 message/node/cycle", rho, lambda)
	}
	wl := probe.WithRate(lambda, cfg.Seed)

	res := Result{
		Algorithm:     cfg.Algorithm,
		Pattern:       cfg.Pattern,
		Switching:     cfg.Switching,
		K:             cfg.K,
		N:             cfg.N,
		Mesh:          cfg.Mesh,
		OfferedLoad:   rho,
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

	// The tick publication: every tickGap cycles OnTick receives the cheap
	// fields of the observable state and a way to Load the rest.
	var tickGap, sinceTick, lastRecorded int64
	var ticks *tickSource
	if cfg.OnTick != nil {
		tickGap = cfg.TickCycles
		if tickGap <= 0 {
			tickGap = 1000
		}
		ticks = &tickSource{wn: eng}
	}
	emitTick := func(final bool) {
		events, next := eng.Trace(lastRecorded, 64)
		lastRecorded = next
		ticks.deliver(cfg.OnTick, TickEvent{
			Algorithm: cfg.Algorithm, Pattern: cfg.Pattern, Switching: cfg.Switching,
			K: cfg.K, N: cfg.N, Mesh: cfg.Mesh, OfferedLoad: rho, Seed: cfg.Seed,
			Cycle: eng.Now(), InFlight: eng.InFlight(),
			Counters: eng.Total(),
			Blame:    eng.BlameHead(4),
			Events:   events,
			Final:    final,
		})
	}
	runFor := func(cycles int64) error {
		for i := int64(0); i < cycles; i++ {
			if err := eng.Step(); err != nil {
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
	deadlock := runFor(cfg.WarmupCycles)
	for deadlock == nil {
		sample = stats.NewStratified(weights)
		start := eng.Total()
		if err := runFor(cfg.SampleCycles); err != nil {
			deadlock = err
			break
		}
		end := eng.Total()
		if end.Cycles > start.Cycles {
			thr.Add(float64(end.FlitMoves-start.FlitMoves) / (float64(end.Cycles-start.Cycles) * float64(g.NumChannels())))
		}
		done := conv.Add(sample)
		if cfg.OnSample != nil {
			cfg.OnSample(SampleEvent{
				Sample: conv.Samples(), MaxSamples: cfg.MaxSamples,
				Mean: sample.Mean(), Bound: sample.ErrorBound(), Done: done,
			})
		}
		sample = nil
		if done {
			break
		}
		// Unmeasured gap with fresh random streams, per the paper.
		eng.Reseed(sampleSeed(cfg.Seed, conv.Samples()))
		if err := runFor(cfg.GapCycles); err != nil {
			deadlock = err
			break
		}
	}

	res.AvgLatency, res.LatencyBound, res.Converged = conv.Estimate()
	res.Cycles = cfg.WarmupCycles + int64(conv.Samples())*(cfg.SampleCycles+cfg.GapCycles)
	t := eng.Total()
	res.Generated, res.Admitted, res.Dropped, res.Delivered = t.Generated, t.Admitted, t.Dropped, t.Delivered
	if t.FlitMoves > 0 {
		res.VCFlitShare = make([]float64, len(t.FlitMovesByClass))
		for i, f := range t.FlitMovesByClass {
			res.VCFlitShare[i] = float64(f) / float64(t.FlitMoves)
		}
	}
	res.HopClassLatency = make([]float64, len(hopStats))
	for i := range hopStats {
		if hopStats[i].Count() == 0 {
			res.HopClassLatency[i] = -1 // unobserved (JSON has no NaN)
		} else {
			res.HopClassLatency[i] = hopStats[i].Mean()
		}
	}
	res.ChannelFlits = eng.ChannelFlitCounts()
	res.Telemetry, res.Forensics = eng.Observers()
	res.TraceEvents, _ = eng.Trace(0, 0)
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
	if deadlock != nil {
		res.Deadlocked = true
		return res, deadlock
	}
	return res, nil
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
// produced it. Callers following the grid convention — check
// Result.Deadlocked, not just err — behave identically on both paths.
func RunCached(cfg Config) (r Result, hit bool, err error) {
	// A store may hold points of a switching technique since retired; never
	// serve one for a config Run rejects.
	if err := cfg.Check(); err != nil {
		return Result{}, false, err
	}
	if cfg.Cache == nil || (cfg.Telemetry != nil && cfg.Telemetry.Trace) {
		r, err = Run(cfg)
		return r, false, err
	}
	hash := cfg.Hash()
	if r, ok := cfg.Cache.Lookup(hash); ok {
		return r, true, nil
	}
	r, err = Run(cfg)
	if err != nil && !r.Deadlocked {
		return r, false, err
	}
	if serr := cfg.Cache.Store(hash, cfg.Canonical(), r); serr != nil {
		return r, false, fmt.Errorf("core: record run %s: %w", hash[:12], serr)
	}
	return r, false, err
}

// PeakThroughput returns the maximum achieved throughput in results and the
// offered load where it occurred. Deadlocked points never win: their
// throughput describes a collapsed network (viz.CurveSeries.SaturationIndex
// rings the same point).
func PeakThroughput(results []Result) (peak, atLoad float64) {
	for _, r := range results {
		if !r.Deadlocked && r.Throughput > peak {
			peak, atLoad = r.Throughput, r.OfferedLoad
		}
	}
	return peak, atLoad
}
