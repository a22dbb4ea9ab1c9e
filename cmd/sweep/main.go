// Command sweep runs a load sweep for one or more algorithms and emits CSV
// (or an aligned table) suitable for regenerating the paper's curves or
// exploring new configurations.
//
// Examples:
//
//	sweep -algs phop,nbc,ecube -loads 0.1:1.0:0.1
//	sweep -algs nlast,ecube -pattern transpose -loads 0.05:0.6:0.05 -format table
//	sweep -algs nbc -pattern hotspot:0.08 -cclimit 1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/observatory"
	"wormsim/internal/routing"
	"wormsim/internal/runstore"
	"wormsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it returns instead of exiting so the deferred
// store, API and server closes happen on failure too.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := core.Config{}
	algs := fs.String("algs", "phop,nhop,nbc,2pn,ecube,nlast", "comma-separated algorithms ("+strings.Join(routing.Names(), ", ")+")")
	loadSpec := fs.String("loads", "0.1:1.0:0.1", "offered loads: lo:hi:step or comma list")
	format := fs.String("format", "csv", "output format: csv, table or json")
	fs.IntVar(&cfg.K, "k", 16, "radix")
	fs.IntVar(&cfg.N, "n", 2, "dimensions")
	fs.BoolVar(&cfg.Mesh, "mesh", false, "mesh instead of torus")
	fs.StringVar(&cfg.Pattern, "pattern", "uniform", "traffic pattern spec")
	fs.StringVar(&cfg.Policy, "policy", "random", "VC selection policy")
	sw := fs.String("switching", "wormhole", "switching: wormhole, vct, saf")
	fs.IntVar(&cfg.MsgLen, "flits", 16, "message length in flits")
	fs.IntVar(&cfg.BufDepth, "bufdepth", 0, "per-VC buffer depth")
	fs.IntVar(&cfg.CCLimit, "cclimit", 0, "congestion-control limit (default 2, -1 off)")
	fs.IntVar(&cfg.InjectionPorts, "ports", 0, "injection ports per node (default 2, -1 unlimited)")
	fs.IntVar(&cfg.RouteDelay, "routedelay", 0, "router pipeline cycles per header hop")
	seed := fs.Uint64("seed", 1, "random seed")
	replicas := fs.Int("replicas", 1, "seeds per point, run as independent replicas with across-seed error bars (0 = one per sampling period budget); replica r uses seed + r*0x9e3779b97f4a7c15")
	fs.Int64Var(&cfg.WarmupCycles, "warmup", 0, "warmup cycles")
	fs.Int64Var(&cfg.SampleCycles, "sample", 0, "cycles per sample")
	fs.IntVar(&cfg.MaxSamples, "maxsamples", 0, "max sampling periods")
	metrics := fs.Bool("metrics", false, "collect telemetry; prints a per-point summary on stderr (json format embeds the full summary)")
	fore := fs.Bool("forensics", false, "congestion forensics per point; prints blame attribution on stderr (json format embeds the full summary)")
	foreEvery := fs.Int64("forensics-every", 0, "forensics sampling period in cycles (default 64; implies -forensics)")
	tracePrefix := fs.String("trace", "", "write a Chrome trace per point to PREFIX-<alg>-<load>.json")
	progress := fs.Bool("progress", false, "live sweep progress with ETA on stderr")
	httpAddr := fs.String("http", "", "serve the live observatory (Prometheus /metrics, /snapshot, SSE /events, /heatmap, pprof, /api/runs) on this address, e.g. :8080")
	storeDir := fs.String("store", "", "persistent run store directory: already-recorded points skip simulation entirely; with -http the store backs the /api/runs and /api/compare endpoints")
	fs.Int64Var(&cfg.TickCycles, "tick", 0, "observatory publication period in simulated cycles (default 1000)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	cfg.Switching = core.Switching(*sw)
	cfg.Seed = *seed
	if *metrics || *tracePrefix != "" {
		cfg.Telemetry = &telemetry.Options{Metrics: *metrics, Trace: *tracePrefix != ""}
	}
	if *fore || *foreEvery > 0 {
		cfg.Forensics = &forensics.Options{SampleEvery: *foreEvery}
	}

	loads, err := core.ParseLoads(*loadSpec)
	if err != nil {
		return err
	}
	algList := strings.Split(*algs, ",")
	for i, alg := range algList {
		algList[i] = strings.TrimSpace(alg)
	}

	// The run store turns the sweep into admission control: every point
	// already recorded comes back without simulating a single cycle.
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

	// The observatory publisher is shared across every point of the sweep:
	// the snapshot follows whichever point published last, and completed
	// points stream out as SSE "point" events.
	var pub *observatory.Publisher
	if *httpAddr != "" {
		pub = observatory.NewPublisher()
	}
	if pub != nil {
		pub.SetSweepTotal(len(algList) * len(loads))
		pp := telemetry.NewPhaseProfiler()
		pub.SetPhases(pp)
		cfg.PhaseProf = pp
		cfg.OnTick = pub.PublishTick
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
		fmt.Fprintf(stderr, "observatory serving on http://%s/\n", s.Addr())
	}

	// The progress bar counts points, or whole algorithms when each point is
	// replicated.
	var prog *telemetry.Progress
	if *progress {
		units := len(algList) * len(loads)
		if *replicas != 1 {
			units = len(algList)
		}
		prog = telemetry.NewProgress(stderr, "sweep", units)
	}
	// note prints a stderr annotation, first breaking out of the progress
	// line's carriage-return rewrite cycle if one is active.
	note := func(format string, a ...any) {
		if prog != nil {
			fmt.Fprintln(stderr)
		}
		fmt.Fprintf(stderr, format, a...)
	}

	if *replicas != 1 {
		if err := sweepReplicated(cfg, algList, loads, *replicas, *format, stdout, note, prog); err != nil {
			return err
		}
		if store != nil {
			note("store: hits=%d misses=%d\n", store.Hits(), store.Misses())
		}
		if prog != nil {
			prog.Finish()
		}
		return nil
	}

	switch *format {
	case "csv":
		fmt.Fprintln(stdout, "algorithm,pattern,switching,offered,latency,latency_bound,throughput,injection_rate,generated,dropped,delivered,samples,state")
	case "table":
		fmt.Fprintf(stdout, "%-8s %-10s %8s %10s %10s %10s %8s\n", "alg", "pattern", "offered", "latency", "bound", "thruput", "state")
	case "json":
		// one JSON object per line (JSONL), emitted below
	default:
		return fmt.Errorf("unknown format %q (csv, table, json)", *format)
	}
	enc := json.NewEncoder(stdout)
	var onDone func(i int, r core.Result)
	if prog != nil || pub != nil {
		onDone = func(i int, r core.Result) {
			if pub != nil {
				pub.PublishPoint(i, r)
			}
			if prog != nil {
				prog.Step(fmt.Sprintf("%s rho=%.2f lat=%.1f", r.Algorithm, r.OfferedLoad, r.AvgLatency))
			}
		}
	}
	spec := core.FigureSpec{ID: "sweep", Pattern: cfg.Pattern, Switching: cfg.Switching, Algorithms: algList, Loads: loads}
	fr, err := core.RunFigure(spec, cfg, onDone)
	if err != nil {
		return err
	}
	for _, series := range fr.Series {
		for _, r := range series.Results {
			state := "ok"
			switch {
			case r.Deadlocked:
				state = "deadlock"
			case !r.Converged:
				state = "max-samples"
			}
			switch *format {
			case "csv":
				fmt.Fprintf(stdout, "%s,%s,%s,%.3f,%.2f,%.2f,%.4f,%.5f,%d,%d,%d,%d,%s\n",
					r.Algorithm, r.Pattern, r.Switching, r.OfferedLoad, r.AvgLatency, r.LatencyBound,
					r.Throughput, r.InjectionRate, r.Generated, r.Dropped, r.Delivered, r.Samples, state)
			case "json":
				r.ChannelFlits = nil // keep the records small
				if err := enc.Encode(r); err != nil {
					return err
				}
			default:
				fmt.Fprintf(stdout, "%-8s %-10s %8.2f %10.1f %10.1f %10.4f %8s\n",
					r.Algorithm, r.Pattern, r.OfferedLoad, r.AvgLatency, r.LatencyBound, r.Throughput, state)
			}
			if *metrics && r.Telemetry != nil {
				top := r.Telemetry.BusiestChannels(1)[0]
				note("# %s rho=%.2f: max ch util %.1f%% (ch %d), head-blocked %d, inj backlog mean %.2f, drops %d\n",
					r.Algorithm, r.OfferedLoad, 100*r.Telemetry.ChannelUtilization(top), top,
					r.Telemetry.TotalHeadBlocked(), r.Telemetry.InjQueueMean, r.Telemetry.Drops)
			}
			if cfg.Forensics != nil && r.Forensics != nil {
				f := r.Forensics
				blame := "no head-blocked worms"
				if top := f.TopRoots(1); len(top) > 0 {
					blame = fmt.Sprintf("top root ch %d carries %.1f%% of %d blamed worm-cycles (%.1f%% attributed)",
						top[0].Ch, 100*top[0].Share, f.BlockedObserved, 100*f.AttributedFraction())
				}
				note("# %s rho=%.2f: %s, %d wait-for cycles\n", r.Algorithm, r.OfferedLoad, blame, f.WaitCycles)
			}
			if *tracePrefix != "" {
				path := fmt.Sprintf("%s-%s-%.2f.json", *tracePrefix, r.Algorithm, r.OfferedLoad)
				if err := writeChromeTrace(path, r.TraceEvents); err != nil {
					return err
				}
			}
		}
		peak, at := core.PeakThroughput(series.Results)
		note("# %s peak throughput %.3f at offered %.2f\n", series.Algorithm, peak, at)
	}
	if store != nil {
		note("store: hits=%d misses=%d\n", store.Hits(), store.Misses())
	}
	if prog != nil {
		prog.Finish()
	}
	return nil
}

// sweepReplicated runs the replicated sweep: every (algorithm, load) point
// simulated at n seeds, one scheduler task per (load, seed)
// (core.SweepReplicated), reported as mean +- across-seed spread. The
// aggregate simulation rate is noted on stderr per algorithm, and prog, if
// set, steps once per algorithm.
func sweepReplicated(cfg core.Config, algList []string, loads []float64, n int, format string, stdout io.Writer, note func(string, ...any), prog *telemetry.Progress) error {
	eff := cfg
	eff.ApplyDefaults()
	if n <= 0 {
		n = eff.MaxSamples
	}
	seeds := make([]uint64, n)
	for r := range seeds {
		seeds[r] = cfg.Seed + uint64(r)*0x9e3779b97f4a7c15
	}
	switch format {
	case "csv":
		fmt.Fprintln(stdout, "algorithm,pattern,switching,offered,mean_latency,latency_spread,mean_throughput,replicas,deadlocks")
	case "table":
		fmt.Fprintf(stdout, "%-8s %-10s %8s %12s %10s %10s %10s\n", "alg", "pattern", "offered", "mean_lat", "spread", "thruput", "deadlocks")
	case "json":
		// one JSON object per line (JSONL), emitted below
	default:
		return fmt.Errorf("unknown format %q (csv, table, json)", format)
	}
	enc := json.NewEncoder(stdout)
	for _, alg := range algList {
		c := cfg
		c.Algorithm = alg
		start := time.Now()
		results, err := core.SweepReplicated(c, loads, seeds, runtime.GOMAXPROCS(0))
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		var cycles int64
		for _, rr := range results {
			for _, r := range rr.Replicas {
				cycles += r.Cycles
			}
			switch format {
			case "csv":
				fmt.Fprintf(stdout, "%s,%s,%s,%.3f,%.2f,%.2f,%.4f,%d,%d\n",
					alg, cfg.Pattern, eff.Switching, rr.OfferedLoad, rr.MeanLatency, rr.LatencySpread,
					rr.MeanThroughput, len(rr.Replicas), rr.Deadlocks)
			case "json":
				rec := rr
				rec.Replicas = nil // keep the records small
				if err := enc.Encode(rec); err != nil {
					return err
				}
			default:
				fmt.Fprintf(stdout, "%-8s %-10s %8.2f %12.1f %10.1f %10.4f %10d\n",
					alg, cfg.Pattern, rr.OfferedLoad, rr.MeanLatency, rr.LatencySpread, rr.MeanThroughput, rr.Deadlocks)
			}
		}
		note("# %s: %d seeds x %d loads, %.3g replica-cycles/s aggregate over %v wall\n",
			alg, n, len(loads), float64(cycles)/wall.Seconds(), wall.Round(time.Millisecond))
		if prog != nil {
			prog.Step(alg)
		}
	}
	return nil
}

// writeChromeTrace writes one point's lifecycle trace for chrome://tracing.
func writeChromeTrace(path string, evs []telemetry.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := telemetry.WriteChromeTrace(f, evs); err != nil {
		return err
	}
	return f.Close()
}
