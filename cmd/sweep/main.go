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
	"flag"
	"fmt"
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
	cfg := core.Config{}
	algs := flag.String("algs", "phop,nhop,nbc,2pn,ecube,nlast", "comma-separated algorithms ("+strings.Join(routing.Names(), ", ")+")")
	loadSpec := flag.String("loads", "0.1:1.0:0.1", "offered loads: lo:hi:step or comma list")
	format := flag.String("format", "csv", "output format: csv, table or json")
	flag.IntVar(&cfg.K, "k", 16, "radix")
	flag.IntVar(&cfg.N, "n", 2, "dimensions")
	flag.BoolVar(&cfg.Mesh, "mesh", false, "mesh instead of torus")
	flag.StringVar(&cfg.Pattern, "pattern", "uniform", "traffic pattern spec")
	flag.StringVar(&cfg.Policy, "policy", "random", "VC selection policy")
	sw := flag.String("switching", "wormhole", "switching: wormhole, vct, saf")
	flag.IntVar(&cfg.MsgLen, "flits", 16, "message length in flits")
	flag.IntVar(&cfg.BufDepth, "bufdepth", 0, "per-VC buffer depth")
	flag.IntVar(&cfg.CCLimit, "cclimit", 0, "congestion-control limit (default 2, -1 off)")
	flag.IntVar(&cfg.InjectionPorts, "ports", 0, "injection ports per node (default 2, -1 unlimited)")
	flag.IntVar(&cfg.RouteDelay, "routedelay", 0, "router pipeline cycles per header hop")
	seed := flag.Uint64("seed", 1, "random seed")
	replicas := flag.Int("replicas", 1, "seeds per point, run as independent replicas with across-seed error bars (0 = one per sampling period budget); replica r uses seed + r*0x9e3779b97f4a7c15")
	flag.Int64Var(&cfg.WarmupCycles, "warmup", 0, "warmup cycles")
	flag.Int64Var(&cfg.SampleCycles, "sample", 0, "cycles per sample")
	flag.IntVar(&cfg.MaxSamples, "maxsamples", 0, "max sampling periods")
	metrics := flag.Bool("metrics", false, "collect telemetry; prints a per-point summary on stderr (json format embeds the full summary)")
	fore := flag.Bool("forensics", false, "congestion forensics per point; prints blame attribution on stderr (json format embeds the full summary)")
	foreEvery := flag.Int64("forensics-every", 0, "forensics sampling period in cycles (default 64; implies -forensics)")
	tracePrefix := flag.String("trace", "", "write a Chrome trace per point to PREFIX-<alg>-<load>.json")
	progress := flag.Bool("progress", false, "live sweep progress with ETA on stderr")
	httpAddr := flag.String("http", "", "serve the live observatory (Prometheus /metrics, /snapshot, SSE /events, /heatmap, pprof, /api/runs) on this address, e.g. :8080")
	storeDir := flag.String("store", "", "persistent run store directory: already-recorded points skip simulation entirely; with -http the store backs the /api/runs and /api/compare endpoints")
	flag.Int64Var(&cfg.TickCycles, "tick", 0, "observatory publication period in simulated cycles (default 1000)")
	flag.Parse()
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
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
	algList := strings.Split(*algs, ",")

	// The run store turns the sweep into admission control: every point
	// already recorded comes back without simulating a single cycle.
	var store *runstore.Store
	if *storeDir != "" {
		s, err := runstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		defer s.Close()
		fmt.Fprintf(os.Stderr, "observatory serving on http://%s/\n", s.Addr())
	}

	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(os.Stderr, "sweep", len(algList)*len(loads))
	}
	// note prints a stderr annotation, first breaking out of the progress
	// line's carriage-return rewrite cycle if one is active.
	note := func(format string, a ...any) {
		if prog != nil {
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintf(os.Stderr, format, a...)
	}

	if *replicas != 1 {
		if err := sweepReplicated(cfg, algList, loads, *replicas, *format); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(1)
		}
		if store != nil {
			note("store: hits=%d misses=%d\n", store.Hits(), store.Misses())
		}
		return
	}

	switch *format {
	case "csv":
		fmt.Println("algorithm,pattern,switching,offered,latency,latency_bound,throughput,injection_rate,generated,dropped,delivered,samples,state")
	case "table":
		fmt.Printf("%-8s %-10s %8s %10s %10s %10s %8s\n", "alg", "pattern", "offered", "latency", "bound", "thruput", "state")
	case "json":
		// one JSON object per line (JSONL), emitted below
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown format %q (csv, table, json)\n", *format)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
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
	for _, alg := range algList {
		alg = strings.TrimSpace(alg)
		c := cfg
		c.Algorithm = alg
		results, err := core.SweepObserved(c, loads, runtime.GOMAXPROCS(0), onDone)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", alg, err)
			os.Exit(1)
		}
		for _, r := range results {
			state := "ok"
			switch {
			case r.Deadlocked:
				state = "deadlock"
			case !r.Converged:
				state = "max-samples"
			}
			switch *format {
			case "csv":
				fmt.Printf("%s,%s,%s,%.3f,%.2f,%.2f,%.4f,%.5f,%d,%d,%d,%d,%s\n",
					r.Algorithm, r.Pattern, r.Switching, r.OfferedLoad, r.AvgLatency, r.LatencyBound,
					r.Throughput, r.InjectionRate, r.Generated, r.Dropped, r.Delivered, r.Samples, state)
			case "json":
				r.ChannelFlits = nil // keep the records small
				if err := enc.Encode(r); err != nil {
					fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
					os.Exit(1)
				}
			default:
				fmt.Printf("%-8s %-10s %8.2f %10.1f %10.1f %10.4f %8s\n",
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
					fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
					os.Exit(1)
				}
			}
		}
		peak, at := core.PeakThroughput(results)
		note("# %s peak throughput %.3f at offered %.2f\n", alg, peak, at)
	}
	if store != nil {
		note("store: hits=%d misses=%d\n", store.Hits(), store.Misses())
	}
	if prog != nil {
		prog.Finish()
	}
}

// sweepReplicated runs the replicated sweep: every (algorithm, load) point
// simulated at n seeds, one scheduler task per (load, seed)
// (core.SweepReplicated), reported as mean +- across-seed spread. The
// aggregate simulation rate lands on stderr per algorithm.
func sweepReplicated(cfg core.Config, algList []string, loads []float64, n int, format string) error {
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
		fmt.Println("algorithm,pattern,switching,offered,mean_latency,latency_spread,mean_throughput,replicas,deadlocks")
	case "table":
		fmt.Printf("%-8s %-10s %8s %12s %10s %10s %10s\n", "alg", "pattern", "offered", "mean_lat", "spread", "thruput", "deadlocks")
	case "json":
		// one JSON object per line (JSONL), emitted below
	default:
		return fmt.Errorf("unknown format %q (csv, table, json)", format)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, alg := range algList {
		alg = strings.TrimSpace(alg)
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
				fmt.Printf("%s,%s,%s,%.3f,%.2f,%.2f,%.4f,%d,%d\n",
					alg, cfg.Pattern, eff.Switching, rr.OfferedLoad, rr.MeanLatency, rr.LatencySpread,
					rr.MeanThroughput, len(rr.Replicas), rr.Deadlocks)
			case "json":
				rec := rr
				rec.Replicas = nil // keep the records small
				if err := enc.Encode(rec); err != nil {
					return err
				}
			default:
				fmt.Printf("%-8s %-10s %8.2f %12.1f %10.1f %10.4f %10d\n",
					alg, cfg.Pattern, rr.OfferedLoad, rr.MeanLatency, rr.LatencySpread, rr.MeanThroughput, rr.Deadlocks)
			}
		}
		fmt.Fprintf(os.Stderr, "# %s: %d seeds x %d loads, %.3g replica-cycles/s aggregate over %v wall\n",
			alg, n, len(loads), float64(cycles)/wall.Seconds(), wall.Round(time.Millisecond))
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
