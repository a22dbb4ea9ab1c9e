// Command wormsim runs a single simulation point and prints a detailed
// report: configuration, latency with its 95% error bound, achieved
// normalized throughput, message accounting, per-hop-class latencies and
// the virtual-channel load balance.
//
// Examples:
//
//	wormsim -alg phop -load 0.7
//	wormsim -alg nbc -pattern hotspot:0.04:255 -load 0.5 -seed 7
//	wormsim -alg 2pn -switching vct -load 0.6
//	wormsim -alg ecube -k 8 -mesh -pattern transpose -load 0.3
//	wormsim -alg nbc -load 0.6 -http :8080 -linger 10m   # live observatory
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wormsim/internal/analysis"
	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/observatory"
	"wormsim/internal/routing"
	"wormsim/internal/runstore"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/viz"
)

// errDeadlocked marks a run the watchdog stopped: its report is still printed
// and the process exits with status 2 rather than 1.
var errDeadlocked = errors.New("deadlocked")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "wormsim: %v\n", err)
		if errors.Is(err, errDeadlocked) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole command: it returns instead of exiting so the deferred
// store, API and server closes happen on failure too.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wormsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := core.Config{}
	fs.IntVar(&cfg.K, "k", 16, "radix (nodes per dimension)")
	fs.IntVar(&cfg.N, "n", 2, "dimensions")
	fs.BoolVar(&cfg.Mesh, "mesh", false, "mesh instead of torus")
	fs.StringVar(&cfg.Algorithm, "alg", "ecube", "routing algorithm: "+strings.Join(routing.Names(), ", "))
	fs.StringVar(&cfg.Pattern, "pattern", "uniform", "traffic pattern spec (uniform | hotspot[:frac[:node]] | local[:radius] | transpose | bitrev | complement)")
	fs.StringVar(&cfg.Policy, "policy", "random", "output VC selection policy: random, first, leastcongested")
	sw := fs.String("switching", "wormhole", "switching technique: wormhole, vct, saf")
	fs.Float64Var(&cfg.OfferedLoad, "load", 0.4, "offered channel utilization (fraction of capacity)")
	fs.Float64Var(&cfg.InjectionRate, "rate", 0, "per-node injection rate (overrides -load if set)")
	fs.IntVar(&cfg.MsgLen, "flits", 16, "message length in flits")
	fs.IntVar(&cfg.BufDepth, "bufdepth", 0, "per-VC flit buffer depth (default 4; vct forces message length)")
	fs.IntVar(&cfg.CCLimit, "cclimit", 0, "congestion-control per-class limit (default 2, -1 disables)")
	fs.IntVar(&cfg.InjectionPorts, "ports", 0, "concurrent injection ports per node (default 2, -1 unlimited)")
	fs.IntVar(&cfg.RouteDelay, "routedelay", 0, "router pipeline cycles per header hop")
	seed := fs.Uint64("seed", 1, "random seed")
	replicas := fs.Int("replicas", 1, "simulate this many seeds of the point as independent runs across the machine's cores (0 = one per sampling period budget); replica r uses seed + r*0x9e3779b97f4a7c15")
	fs.Int64Var(&cfg.WarmupCycles, "warmup", 0, "warmup cycles (default 5000)")
	fs.Int64Var(&cfg.SampleCycles, "sample", 0, "cycles per sampling period (default 2000)")
	fs.IntVar(&cfg.MaxSamples, "maxsamples", 0, "maximum sampling periods (default 12)")
	verbose := fs.Bool("v", false, "print per-hop-class latencies and VC load balance")
	metrics := fs.Bool("metrics", false, "collect and print telemetry: per-channel utilization, head-blocked cycles, VC occupancy")
	fore := fs.Bool("forensics", false, "congestion forensics: sampled wait-for graphs, root-cause blame attribution and per-worm latency anatomy")
	foreEvery := fs.Int64("forensics-every", 0, "forensics sampling period in cycles (default 64; 1 samples every cycle; implies -forensics)")
	blameOut := fs.String("blameout", "", "write the forensics summary to PREFIX.json and the blame heatmap to PREFIX.svg (implies -forensics)")
	tracePath := fs.String("trace", "", "write a worm lifecycle trace to this file (Chrome trace_event JSON for chrome://tracing)")
	traceFormat := fs.String("traceformat", "chrome", "trace file format: chrome or jsonl")
	traceSample := fs.Int64("tracesample", 1, "trace every Nth worm")
	progress := fs.Bool("progress", false, "live per-sample progress with ETA on stderr")
	httpAddr := fs.String("http", "", "serve the live observatory (Prometheus /metrics, /snapshot, SSE /events, /heatmap, pprof, /api/runs) on this address, e.g. :8080")
	storeDir := fs.String("store", "", "persistent run store directory: cached points skip simulation entirely; with -http the store backs the /api/runs and /api/compare endpoints")
	fs.Int64Var(&cfg.TickCycles, "tick", 0, "observatory publication period in simulated cycles (default 1000)")
	linger := fs.Duration("linger", 0, "keep the observatory server up this long after the run (e.g. 10m)")
	phaseprof := fs.Bool("phaseprof", false, "profile engine wall time per pipeline phase and print the report")
	configPath := fs.String("config", "", "JSON config file (explicit flags still override)")
	saveConfig := fs.String("saveconfig", "", "write the effective config to this JSON file and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	cfg.Switching = core.Switching(*sw)
	cfg.Seed = *seed

	if *configPath != "" {
		loaded, err := core.LoadConfig(*configPath)
		if err != nil {
			return err
		}
		// Explicitly passed flags win over the file; everything else comes
		// from the file.
		flagged := cfg
		cfg = loaded
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k":
				cfg.K = flagged.K
			case "n":
				cfg.N = flagged.N
			case "mesh":
				cfg.Mesh = flagged.Mesh
			case "alg":
				cfg.Algorithm = flagged.Algorithm
			case "pattern":
				cfg.Pattern = flagged.Pattern
			case "policy":
				cfg.Policy = flagged.Policy
			case "switching":
				cfg.Switching = flagged.Switching
			case "load":
				cfg.OfferedLoad = flagged.OfferedLoad
			case "rate":
				cfg.InjectionRate = flagged.InjectionRate
			case "flits":
				cfg.MsgLen = flagged.MsgLen
			case "bufdepth":
				cfg.BufDepth = flagged.BufDepth
			case "cclimit":
				cfg.CCLimit = flagged.CCLimit
			case "ports":
				cfg.InjectionPorts = flagged.InjectionPorts
			case "routedelay":
				cfg.RouteDelay = flagged.RouteDelay
			case "seed":
				cfg.Seed = flagged.Seed
			case "warmup":
				cfg.WarmupCycles = flagged.WarmupCycles
			case "sample":
				cfg.SampleCycles = flagged.SampleCycles
			case "maxsamples":
				cfg.MaxSamples = flagged.MaxSamples
			}
		})
		if cfg.OfferedLoad == 0 && cfg.InjectionRate == 0 {
			cfg.OfferedLoad = flagged.OfferedLoad // the -load default
		}
	}
	// Telemetry flags augment whatever the config file requested.
	if *metrics || *tracePath != "" {
		opts := telemetry.Options{}
		if cfg.Telemetry != nil {
			opts = *cfg.Telemetry
		}
		opts.Metrics = opts.Metrics || *metrics
		opts.Trace = opts.Trace || *tracePath != ""
		if *traceSample > 1 {
			opts.SampleEvery = *traceSample
		}
		cfg.Telemetry = &opts
	}
	// Forensics flags likewise augment the config file's request.
	if *fore || *foreEvery > 0 || *blameOut != "" {
		opts := forensics.Options{}
		if cfg.Forensics != nil {
			opts = *cfg.Forensics
		}
		if *foreEvery > 0 {
			opts.SampleEvery = *foreEvery
		}
		cfg.Forensics = &opts
	}
	if *saveConfig != "" {
		if err := cfg.Save(*saveConfig); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *saveConfig)
		return nil
	}
	// The run store: content-addressed persistence for every completed
	// point. Attached to the config it short-circuits repeat runs; attached
	// to the observatory it backs the /api/runs and /api/compare surface.
	var store *runstore.Store
	if *storeDir != "" {
		s, err := runstore.Open(*storeDir)
		if err != nil {
			return err
		}
		defer s.Close()
		store = s
		cfg.Cache = store
	}
	// The observatory: a publisher fed by the engine's tick hook, served
	// over HTTP. The phase profiler rides along whenever either is wanted.
	var pub *observatory.Publisher
	var obsrv *observatory.Server
	if *httpAddr != "" {
		pub = observatory.NewPublisher()
	}
	if pub != nil {
		var api *observatory.API
		if store != nil {
			pub.SetStore(store)
			api = observatory.NewAPI(store, pub, runtime.GOMAXPROCS(0))
			defer api.Close()
		}
		s, err := observatory.Listen(*httpAddr, pub, api)
		if err != nil {
			return err
		}
		defer s.Close()
		obsrv = s
		fmt.Fprintf(stderr, "observatory serving on http://%s/\n", s.Addr())
	}
	var pp *telemetry.PhaseProfiler
	if *phaseprof || pub != nil {
		pp = telemetry.NewPhaseProfiler()
		cfg.PhaseProf = pp
	}
	if pub != nil {
		pub.SetPhases(pp)
		cfg.OnTick = pub.PublishTick
	}

	var prog *telemetry.Progress
	if *progress {
		eff := cfg
		eff.ApplyDefaults()
		prog = telemetry.NewProgress(stderr, "sample", eff.MaxSamples)
		cfg.OnSample = func(ev core.SampleEvent) {
			prog.Step(fmt.Sprintf("lat=%.1f+-%.1f", ev.Mean, ev.Bound))
		}
	}

	if *replicas != 1 {
		err := runReplicated(stdout, cfg, *replicas, prog)
		if store != nil {
			fmt.Fprintf(stderr, "store: hits=%d misses=%d\n", store.Hits(), store.Misses())
		}
		return err
	}

	res, hit, err := core.RunCached(cfg)
	if prog != nil {
		prog.Finish()
	}
	if err != nil && !res.Deadlocked {
		return err
	}
	if hit {
		fmt.Fprintf(stderr, "result served from run store %s (cache hit %s, zero cycles simulated)\n",
			store.Path(), cfg.Hash()[:12])
	}
	if store != nil {
		fmt.Fprintf(stderr, "store: hits=%d misses=%d\n", store.Hits(), store.Misses())
	}

	fmt.Fprintf(stdout, "network      : %d-ary %d-cube", cfg.K, cfg.N)
	if cfg.Mesh {
		fmt.Fprintf(stdout, " (mesh)")
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "algorithm    : %s (%s switching, policy %s)\n", res.Algorithm, res.Switching, cfg.Policy)
	fmt.Fprintf(stdout, "pattern      : %s (mean distance %.3f hops)\n", res.Pattern, res.MeanDistance)
	fmt.Fprintf(stdout, "offered load : %.3f of capacity (%.5f msgs/node/cycle)\n", res.OfferedLoad, res.InjectionRate)
	fmt.Fprintf(stdout, "latency      : %.1f +- %.1f cycles (95%%); p50 %.0f, p95 %.0f, p99 %.0f, max %.0f\n",
		res.AvgLatency, res.LatencyBound, res.LatencyP50, res.LatencyP95, res.LatencyP99, res.LatencyMax)
	fmt.Fprintf(stdout, "throughput   : %.4f of capacity\n", res.Throughput)
	fmt.Fprintf(stdout, "messages     : %d generated, %d admitted, %d dropped, %d delivered\n",
		res.Generated, res.Admitted, res.Dropped, res.Delivered)
	fmt.Fprintf(stdout, "samples      : %d (converged: %v, deadlocked: %v)\n", res.Samples, res.Converged, res.Deadlocked)

	if *verbose {
		fmt.Fprintln(stdout, "\nhop class latencies (cycles):")
		for d, l := range res.HopClassLatency {
			if l >= 0 && d > 0 {
				fmt.Fprintf(stdout, "  %2d hops: %8.1f\n", d, l)
			}
		}
		if len(res.VCFlitShare) > 0 {
			fmt.Fprintln(stdout, "virtual-channel load balance (share of flit transfers):")
			for v, s := range res.VCFlitShare {
				fmt.Fprintf(stdout, "  vc%-2d: %6.2f%% %s\n", v, 100*s, strings.Repeat("#", int(s*120)))
			}
		}
		if len(res.ChannelFlits) > 0 {
			g := cfg.Grid()
			fmt.Fprintf(stdout, "physical-channel load balance: %v\n", analysis.ChannelBalance(g, res.ChannelFlits))
			if g.N() == 2 {
				fmt.Fprintln(stdout, "per-node traffic heatmap (outgoing flits; darker = busier):")
				fmt.Fprint(stdout, viz.ChannelHeatmap(g, res.ChannelFlits))
			}
		}
	}
	if *metrics || (cfg.Telemetry != nil && cfg.Telemetry.Metrics) {
		if res.Telemetry == nil {
			fmt.Fprintln(stderr, "wormsim: -metrics: no telemetry collected (saf switching has no flit-level channels)")
		} else {
			printTelemetry(stdout, cfg.Grid(), res.Telemetry)
		}
	}
	if cfg.Forensics != nil {
		if res.Forensics == nil {
			fmt.Fprintln(stderr, "wormsim: -forensics: nothing collected (saf switching has no virtual channels)")
		} else {
			printForensics(stdout, cfg.Grid(), res.Forensics)
		}
	}
	if *blameOut != "" && res.Forensics != nil {
		if werr := writeBlame(*blameOut, cfg, res.Forensics); werr != nil {
			return werr
		}
		fmt.Fprintf(stderr, "wrote blame summary to %s.json and heatmap to %s.svg\n", *blameOut, *blameOut)
	}
	if *tracePath != "" {
		if werr := writeTrace(*tracePath, *traceFormat, res.TraceEvents); werr != nil {
			return werr
		}
		fmt.Fprintf(stderr, "wrote %d trace events to %s (%s format)\n", len(res.TraceEvents), *tracePath, *traceFormat)
	}
	if *phaseprof && pp != nil {
		fmt.Fprintf(stdout, "\n%s", pp.Snapshot())
	}
	if obsrv != nil && *linger > 0 {
		fmt.Fprintf(stderr, "observatory lingering %v on http://%s/ (interrupt to exit)\n", *linger, obsrv.Addr())
		time.Sleep(*linger)
	}
	if res.Deadlocked {
		return fmt.Errorf("%w: %w", errDeadlocked, err)
	}
	return nil
}

// runReplicated simulates n seeds of the point as independent replicas
// across the machine's cores (core.SweepReplicated) and prints per-replica
// results plus the aggregate: mean latency with its across-seed spread, mean
// throughput, and the aggregate simulation rate achieved. n == 0 picks one
// replica per sampling period budget (the convergence rule's MaxSamples).
// A deadlocked replica makes the error errDeadlocked, after the report.
func runReplicated(w io.Writer, cfg core.Config, n int, prog *telemetry.Progress) error {
	eff := cfg
	eff.ApplyDefaults()
	if n <= 0 {
		n = eff.MaxSamples
	}
	seeds := make([]uint64, n)
	for r := range seeds {
		seeds[r] = cfg.Seed + uint64(r)*0x9e3779b97f4a7c15
	}
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	reps, err := core.SweepReplicated(cfg, []float64{cfg.OfferedLoad}, seeds, workers)
	wall := time.Since(start)
	if prog != nil {
		prog.Finish()
	}
	if err != nil {
		return err
	}
	agg, results := reps[0], reps[0].Replicas
	fmt.Fprintf(w, "network      : %d-ary %d-cube", cfg.K, cfg.N)
	if cfg.Mesh {
		fmt.Fprintf(w, " (mesh)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "algorithm    : %s (%s switching, policy %s)\n", results[0].Algorithm, results[0].Switching, cfg.Policy)
	fmt.Fprintf(w, "pattern      : %s (mean distance %.3f hops)\n", results[0].Pattern, results[0].MeanDistance)
	fmt.Fprintf(w, "offered load : %.3f of capacity (%.5f msgs/node/cycle)\n", results[0].OfferedLoad, results[0].InjectionRate)
	fmt.Fprintf(w, "replicas     : %d seeds, independent runs on %d workers\n", n, min(workers, n))
	var cycles int64
	for r, res := range results {
		fmt.Fprintf(w, "  seed %-#18x: %s\n", seeds[r], res.String())
		cycles += res.Cycles
	}
	fmt.Fprintf(w, "aggregate    : latency %.1f +- %.1f cycles (across-seed spread); throughput %.4f; deadlocks %d/%d\n",
		agg.MeanLatency, agg.LatencySpread, agg.MeanThroughput, agg.Deadlocks, n)
	fmt.Fprintf(w, "rate         : %.3g replica-cycles/s aggregate over %v wall\n",
		float64(cycles)/wall.Seconds(), wall.Round(time.Millisecond))
	if agg.Deadlocks > 0 {
		return fmt.Errorf("%w: %d of %d replicas", errDeadlocked, agg.Deadlocks, n)
	}
	return nil
}

// printTelemetry renders the metrics registry: the busiest physical channels
// with their endpoints (the view that makes a hotspot's saturating channels
// obvious), head-blocked cycles per routing class, the per-class
// virtual-channel occupancy gauges and the injection backlog.
func printTelemetry(w io.Writer, g *topology.Grid, s *telemetry.Summary) {
	fmt.Fprintf(w, "\ntelemetry (%d cycles observed):\n", s.Cycles)
	fmt.Fprintln(w, "  busiest physical channels (busy cycles / observed cycles):")
	for _, ch := range s.BusiestChannels(10) {
		up, dim, dir := g.ChannelInfo(ch)
		down := "edge"
		if d := g.Neighbor(up, dim, dir); d >= 0 {
			down = nodeName(g, d)
		}
		fmt.Fprintf(w, "    ch %4d  %s d%d%v -> %-8s %6.1f%%\n",
			ch, nodeName(g, up), dim, dir, down, 100*s.ChannelUtilization(ch))
	}
	if hb := s.TotalHeadBlocked(); hb > 0 {
		fmt.Fprintf(w, "  head-blocked cycles by routing class: %v (total %d)\n", s.HeadBlockedByClass, hb)
	}
	for i := range s.VCOccupancyMean {
		fmt.Fprintf(w, "  vc occupancy class %d: mean %.1f, max %.0f\n", i, s.VCOccupancyMean[i], s.VCOccupancyMax[i])
	}
	fmt.Fprintf(w, "  injection backlog: mean %.2f, max %.0f messages\n", s.InjQueueMean, s.InjQueueMax)
	fmt.Fprintf(w, "  congestion drops: %d\n", s.Drops)
	if s.TraceEvents > 0 || s.TraceEvicted > 0 {
		fmt.Fprintf(w, "  trace: %d events retained, %d evicted\n", s.TraceEvents, s.TraceEvicted)
	}
}

// printForensics renders the blame and latency-anatomy report, then labels
// the top root channels with their topology endpoints (the view that turns
// "ch 217" into "the channel feeding the hot node").
func printForensics(w io.Writer, g *topology.Grid, f *forensics.Summary) {
	fmt.Fprintf(w, "\n%s", f.RenderString())
	roots := f.TopRoots(4)
	if len(roots) == 0 {
		return
	}
	fmt.Fprintln(w, "  top roots on the topology:")
	for _, r := range roots {
		up, dim, dir := g.ChannelInfo(r.Ch)
		down := "edge"
		if d := g.Neighbor(up, dim, dir); d >= 0 {
			down = nodeName(g, d)
		}
		fmt.Fprintf(w, "    ch %4d  %s d%d%v -> %-8s %5.1f%% of blame\n",
			r.Ch, nodeName(g, up), dim, dir, down, 100*r.Share)
	}
}

// writeBlame exports the forensics summary as prefix.json plus the blame
// heatmap as prefix.svg — the same artifacts the observatory's /blame and
// /blame.svg serve live, in a form CI can archive.
func writeBlame(prefix string, cfg core.Config, f *forensics.Summary) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(prefix+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	top := f.TopRoots(4)
	rootChs := make([]int, len(top))
	for i, r := range top {
		rootChs[i] = r.Ch
	}
	title := fmt.Sprintf("%s %s rho=%.2f — blame (every %d)",
		cfg.Algorithm, cfg.Pattern, cfg.OfferedLoad, f.SampleEvery)
	svg := viz.BlameSVG(cfg.Grid(), f.BlameByChannel, rootChs, title)
	return os.WriteFile(prefix+".svg", []byte(svg), 0o644)
}

// nodeName renders a node as its coordinate tuple, e.g. "(3,3)".
func nodeName(g *topology.Grid, id int) string {
	c := g.Coords(id, make([]int, g.N()))
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = strconv.Itoa(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// writeTrace exports the lifecycle trace in the requested format.
func writeTrace(path, format string, evs []telemetry.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "chrome":
		err = telemetry.WriteChromeTrace(f, evs)
	case "jsonl":
		err = telemetry.WriteJSONL(f, evs)
	default:
		err = fmt.Errorf("unknown trace format %q (want chrome or jsonl)", format)
	}
	if err != nil {
		return err
	}
	return f.Close()
}
