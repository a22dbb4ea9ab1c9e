// Command wormsim runs one simulation point, or a grid of them.
//
// One algorithm at one offered load prints a detailed report:
// configuration, latency with its 95% error bound, achieved normalized
// throughput, message accounting, per-hop-class latencies and the
// virtual-channel load balance. A comma list for -alg, a load range or list
// for -load, or an explicit -format runs the grid of (algorithm, load)
// points and prints one CSV, table or JSON row per point, suitable for
// regenerating the paper's curves. -replicas runs every point at several
// seeds and reports the across-seed spread.
//
// Examples:
//
//	wormsim -alg phop -load 0.7
//	wormsim -alg nbc -pattern hotspot:0.04:255 -load 0.5 -seed 7
//	wormsim -alg 2pn -switching vct -load 0.6
//	wormsim -alg ecube -k 8 -mesh -pattern transpose -load 0.3
//	wormsim -alg nbc -load 0.6 -http :8080 -linger 10m   # live observatory
//	wormsim -alg phop,nbc,ecube -load 0.1:1.0:0.1        # CSV grid
//	wormsim -alg nlast,ecube -pattern transpose -load 0.05,0.3,0.6 -format table
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
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
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wormsim: %v\n", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's error to the process status: 0 success, 2 a
// deadlocked run, 1 anything else.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errDeadlocked):
		return 2
	}
	return 1
}

// cli is one invocation's output streams, attachments and the flags the
// run modes read.
type cli struct {
	stdout, stderr io.Writer
	store          *runstore.Store
	pub            *observatory.Publisher
	prog           *telemetry.Progress

	format, blameOut, tracePath, traceFormat string
	verbose                                  bool
}

// run is the whole command: it returns instead of exiting so the deferred
// store, API and server closes happen on failure too.
func run(args []string, stdout, stderr io.Writer) error {
	c := &cli{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("wormsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := core.Config{OfferedLoad: 0.4} // the -load default
	var loads []float64                  // set by an explicit -load
	var def core.Config                  // the defaults the flags and their help state
	def.ApplyDefaults()
	fs.IntVar(&cfg.K, "k", def.K, "radix (nodes per dimension)")
	fs.IntVar(&cfg.N, "n", def.N, "dimensions")
	fs.BoolVar(&cfg.Mesh, "mesh", false, "mesh instead of torus")
	fs.StringVar(&cfg.Algorithm, "alg", def.Algorithm, "routing algorithm, or a comma list of them: "+strings.Join(routing.Names(), ", "))
	fs.StringVar(&cfg.Pattern, "pattern", def.Pattern, "traffic pattern spec (uniform | hotspot[:frac[:node]] | local[:radius] | transpose | bitrev | complement | tornado | shuffle)")
	fs.StringVar(&cfg.Policy, "policy", def.Policy, "output VC selection policy: random, first, leastcongested")
	fs.StringVar((*string)(&cfg.Switching), "switching", string(def.Switching), "switching technique: wormhole, vct")
	fs.Func("load", "offered channel utilization (fraction of capacity): one value, a lo:hi:step range or a comma list (default 0.4)", func(s string) (err error) {
		loads, err = core.ParseLoads(s)
		return err
	})
	fs.Float64Var(&cfg.InjectionRate, "rate", 0, "per-node injection rate (overrides -load if set; one load only)")
	fs.IntVar(&cfg.MsgLen, "flits", def.MsgLen, "message length in flits")
	fs.IntVar(&cfg.BufDepth, "bufdepth", 0, fmt.Sprintf("per-VC flit buffer depth (default %d; vct forces message length)", def.BufDepth))
	fs.IntVar(&cfg.CCLimit, "cclimit", 0, fmt.Sprintf("congestion-control per-class limit (default %d, -1 disables)", def.CCLimit))
	fs.IntVar(&cfg.InjectionPorts, "ports", 0, fmt.Sprintf("concurrent injection ports per node (default %d, -1 unlimited)", def.InjectionPorts))
	fs.IntVar(&cfg.RouteDelay, "routedelay", 0, "router pipeline cycles per header hop")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	replicas := fs.Int("replicas", 1, "simulate this many seeds of every point as independent runs across the machine's cores, reported with their across-seed spread (0 = one per sampling period budget); replica r uses seed + r")
	fs.Int64Var(&cfg.WarmupCycles, "warmup", 0, fmt.Sprintf("warmup cycles (default %d)", def.WarmupCycles))
	fs.Int64Var(&cfg.SampleCycles, "sample", 0, fmt.Sprintf("cycles per sampling period (default %d)", def.SampleCycles))
	fs.IntVar(&cfg.MaxSamples, "maxsamples", 0, fmt.Sprintf("maximum sampling periods (default %d)", def.MaxSamples))
	fs.StringVar(&c.format, "format", "", "grid output format: csv, table or json (one JSON object per line); the default is the detailed report for one point and csv for several")
	fs.BoolVar(&c.verbose, "v", false, "print per-hop-class latencies and VC load balance")
	metrics := fs.Bool("metrics", false, "collect and print telemetry: per-channel utilization, head-blocked cycles, VC occupancy (a grid prints one stderr line per point; json embeds the full summary)")
	fore := fs.Bool("forensics", false, "congestion forensics: sampled wait-for graphs, root-cause blame attribution and per-worm latency anatomy (a grid prints one stderr line per point; json embeds the full summary)")
	foreEvery := fs.Int64("forensics-every", 0, fmt.Sprintf("forensics sampling period in cycles (default %d; 1 samples every cycle; implies -forensics)", forensics.DefaultSampleEvery))
	fs.StringVar(&c.blameOut, "blameout", "", "write the forensics summary to PREFIX.json and the blame heatmap to PREFIX.svg (implies -forensics)")
	fs.StringVar(&c.tracePath, "trace", "", "write a worm lifecycle trace to this file (a grid writes one per point to FILE-<alg>-<load>.json)")
	fs.StringVar(&c.traceFormat, "traceformat", "chrome", "trace file format: chrome (trace_event JSON for chrome://tracing) or jsonl")
	traceSample := fs.Int64("tracesample", 1, "trace every Nth worm")
	progress := fs.Bool("progress", false, "live progress with ETA on stderr: per sampling period for one point (of every replica with -replicas), per point for a grid, per algorithm for a grid with -replicas")
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
	if *configPath != "" {
		// The file replaces the flag defaults; parsing again puts every
		// explicitly passed flag back on top of it.
		defaultLoad := cfg.OfferedLoad
		var err error
		if cfg, err = core.LoadConfig(*configPath); err != nil {
			return err
		}
		if err := fs.Parse(args); err != nil {
			return err
		}
		if cfg.OfferedLoad == 0 && cfg.InjectionRate == 0 {
			cfg.OfferedLoad = defaultLoad
		}
	}
	algs := strings.Split(cfg.Algorithm, ",")
	for i, alg := range algs {
		algs[i] = strings.TrimSpace(alg)
	}
	if loads == nil {
		loads = []float64{cfg.OfferedLoad}
	}
	cfg.Algorithm, cfg.OfferedLoad = algs[0], loads[0]
	if len(loads) > 1 && cfg.InjectionRate != 0 {
		return errors.New("-rate sets one injection rate; it cannot be combined with several -load values")
	}
	grid := len(algs)*len(loads) > 1 || c.format != ""
	if grid && c.format == "" {
		c.format = "csv"
	}
	switch c.format {
	case "", "csv", "table", "json":
	default:
		return fmt.Errorf("unknown format %q (csv, table, json)", c.format)
	}
	if traceWriters[c.traceFormat] == nil {
		return fmt.Errorf("unknown trace format %q (want chrome or jsonl)", c.traceFormat)
	}
	// A flag the chosen mode would ignore is a usage error, not a silent no-op.
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case *replicas != 1 && slices.Contains([]string{"v", "metrics", "forensics", "forensics-every", "blameout", "trace"}, f.Name):
			err = fmt.Errorf("-%s is not supported with -replicas", f.Name)
		case grid && slices.Contains([]string{"v", "blameout", "saveconfig"}, f.Name):
			err = fmt.Errorf("-%s is not supported with a grid (several points or -format)", f.Name)
		}
	})
	if err != nil {
		return err
	}

	// Telemetry flags augment whatever the config file requested.
	if *metrics || c.tracePath != "" {
		if cfg.Telemetry == nil {
			cfg.Telemetry = &telemetry.Options{}
		}
		cfg.Telemetry.Metrics = cfg.Telemetry.Metrics || *metrics
		cfg.Telemetry.Trace = cfg.Telemetry.Trace || c.tracePath != ""
		if *traceSample > 1 {
			cfg.Telemetry.SampleEvery = *traceSample
		}
	}
	// Forensics flags likewise augment the config file's request.
	if *fore || *foreEvery > 0 || c.blameOut != "" {
		if cfg.Forensics == nil {
			cfg.Forensics = &forensics.Options{}
		}
		if *foreEvery > 0 {
			cfg.Forensics.SampleEvery = *foreEvery
		}
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
	if *storeDir != "" {
		s, err := runstore.Open(*storeDir)
		if err != nil {
			return err
		}
		defer s.Close()
		c.store = s
		cfg.Cache = s
	}
	// -replicas runs every point at nrep seeds (0 = MaxSamples of them), each
	// seed a point of its own.
	eff := cfg
	eff.ApplyDefaults()
	nrep := *replicas
	if nrep <= 0 {
		nrep = eff.MaxSamples
	}
	// The observatory: a publisher fed by the engine's tick hook, served
	// over HTTP. The snapshot follows whichever point published last, and
	// a grid's completed points stream out as SSE "point" events. The phase
	// profiler rides along whenever either is wanted.
	var pp *telemetry.PhaseProfiler
	if *phaseprof || *httpAddr != "" {
		pp = telemetry.NewPhaseProfiler()
		cfg.PhaseProf = pp
	}
	var obsrv *observatory.Server
	if *httpAddr != "" {
		c.pub = observatory.NewPublisher()
	}
	if c.pub != nil {
		c.pub.SetPhases(pp)
		cfg.OnTick = c.pub.PublishTick
		if grid || *replicas != 1 {
			c.pub.SetSweepTotal(len(algs) * len(loads) * nrep)
		}
		s, err := observatory.Listen(*httpAddr, c.pub, c.store)
		if err != nil {
			return err
		}
		defer s.Close()
		obsrv = s
		fmt.Fprintf(stderr, "observatory serving on http://%s/\n", s.Addr())
	}
	if *progress {
		switch {
		case !grid:
			c.prog = telemetry.NewProgress(stderr, "sample", nrep*eff.MaxSamples)
			cfg.OnSample = func(ev core.SampleEvent) {
				c.prog.Step(fmt.Sprintf("lat=%.1f+-%.1f", ev.Mean, ev.Bound))
			}
		case *replicas != 1:
			c.prog = telemetry.NewProgress(stderr, "sweep", len(algs))
		default:
			c.prog = telemetry.NewProgress(stderr, "sweep", len(algs)*len(loads))
		}
	}

	switch {
	case *replicas != 1:
		err = c.replicated(cfg, algs, loads, nrep)
	case grid:
		err = c.grid(cfg, algs, loads)
	default:
		err = c.point(cfg)
	}
	c.finish()
	if c.store != nil {
		c.note("store: hits=%d misses=%d\n", c.store.Hits(), c.store.Misses())
	}
	if err != nil && !errors.Is(err, errDeadlocked) {
		return err
	}
	if *phaseprof && pp != nil {
		fmt.Fprintf(stdout, "\n%s", pp.Snapshot())
	}
	if obsrv != nil && *linger > 0 {
		fmt.Fprintf(stderr, "observatory lingering %v on http://%s/ (interrupt to exit)\n", *linger, obsrv.Addr())
		time.Sleep(*linger)
	}
	return err
}

// note prints a stderr annotation, first breaking out of the progress
// line's carriage-return rewrite cycle if one is active.
func (c *cli) note(format string, a ...any) {
	if c.prog != nil {
		fmt.Fprintln(c.stderr)
	}
	fmt.Fprintf(c.stderr, format, a...)
}

// finish ends the progress line, if one is active.
func (c *cli) finish() {
	if c.prog != nil {
		c.prog.Finish()
		c.prog = nil
	}
}

// point runs the single point cfg describes and prints the detailed report,
// plus whatever -v, -metrics, -forensics, -blameout and -trace ask for. A
// deadlocked run makes the error errDeadlocked, after the report.
func (c *cli) point(cfg core.Config) error {
	res, hit, err := core.RunCached(cfg)
	c.finish()
	if err != nil && !res.Deadlocked {
		return err
	}
	if hit {
		c.note("result served from run store %s (cache hit %s, zero cycles simulated)\n",
			c.store.Path(), cfg.Hash()[:12])
	}

	w := c.stdout
	printHeader(w, cfg, res)
	fmt.Fprintf(w, "latency      : %.1f +- %.1f cycles (95%%); p50 %.0f, p95 %.0f, p99 %.0f, max %.0f\n",
		res.AvgLatency, res.LatencyBound, res.LatencyP50, res.LatencyP95, res.LatencyP99, res.LatencyMax)
	fmt.Fprintf(w, "throughput   : %.4f of capacity\n", res.Throughput)
	fmt.Fprintf(w, "messages     : %d generated, %d admitted, %d dropped, %d delivered\n",
		res.Generated, res.Admitted, res.Dropped, res.Delivered)
	fmt.Fprintf(w, "samples      : %d (converged: %v, deadlocked: %v)\n", res.Samples, res.Converged, res.Deadlocked)

	if c.verbose {
		fmt.Fprintln(w, "\nhop class latencies (cycles):")
		for d, l := range res.HopClassLatency {
			if l >= 0 && d > 0 {
				fmt.Fprintf(w, "  %2d hops: %8.1f\n", d, l)
			}
		}
		if len(res.VCFlitShare) > 0 {
			fmt.Fprintln(w, "virtual-channel load balance (share of flit transfers):")
			for v, s := range res.VCFlitShare {
				fmt.Fprintf(w, "  vc%-2d: %6.2f%% %s\n", v, 100*s, strings.Repeat("#", int(s*120)))
			}
		}
		if len(res.ChannelFlits) > 0 {
			g := cfg.Grid()
			fmt.Fprintf(w, "physical-channel load balance: %v\n", analysis.ChannelBalance(g, res.ChannelFlits))
			if g.N() == 2 {
				fmt.Fprintln(w, "per-node traffic heatmap (outgoing flits; darker = busier):")
				fmt.Fprint(w, viz.ChannelHeatmap(g, res.ChannelFlits))
			}
		}
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Metrics {
		printTelemetry(w, cfg.Grid(), res.Telemetry)
	}
	if cfg.Forensics != nil {
		printForensics(w, cfg.Grid(), res.Forensics)
	}
	if c.blameOut != "" && res.Forensics != nil {
		if werr := writeBlame(c.blameOut, cfg, res.Forensics); werr != nil {
			return werr
		}
		fmt.Fprintf(c.stderr, "wrote blame summary to %s.json and heatmap to %s.svg\n", c.blameOut, c.blameOut)
	}
	if c.tracePath != "" {
		if werr := writeTrace(c.tracePath, c.traceFormat, res.TraceEvents); werr != nil {
			return werr
		}
		fmt.Fprintf(c.stderr, "wrote %d trace events to %s (%s format)\n", len(res.TraceEvents), c.tracePath, c.traceFormat)
	}
	if res.Deadlocked {
		if hit { // a cache hit carries no engine error
			err = errors.New("recorded in the run store")
		}
		return fmt.Errorf("%w: %w", errDeadlocked, err)
	}
	return nil
}

// printHeader prints the lines the single-point reports open with: the
// network, algorithm, pattern and offered load.
func printHeader(w io.Writer, cfg core.Config, res core.Result) {
	fmt.Fprintf(w, "network      : %d-ary %d-cube", cfg.K, cfg.N)
	if cfg.Mesh {
		fmt.Fprintf(w, " (mesh)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "algorithm    : %s (%s switching, policy %s)\n", res.Algorithm, res.Switching, cfg.Policy)
	fmt.Fprintf(w, "pattern      : %s (mean distance %.3f hops)\n", res.Pattern, res.MeanDistance)
	fmt.Fprintf(w, "offered load : %.3f of capacity (%.5f msgs/node/cycle)\n", res.OfferedLoad, res.InjectionRate)
}

// grid runs every (algorithm, load) point in one core.RunFigure call across
// the machine's cores and prints a row per point. Stderr gets a note per
// point for -metrics and -forensics and each algorithm's peak throughput;
// -trace writes each point's trace to its own file. Deadlocked points are
// rows with state "deadlock", not errors.
func (c *cli) grid(cfg core.Config, algs []string, loads []float64) error {
	w := c.stdout
	algW, patW := nameWidths(algs, cfg.Pattern)
	switch c.format {
	case "csv":
		fmt.Fprintln(w, "algorithm,pattern,switching,offered,latency,latency_bound,throughput,injection_rate,generated,dropped,delivered,samples,state")
	case "table":
		fmt.Fprintf(w, "%-*s %-*s %8s %10s %10s %10s %11s\n", algW, "alg", patW, "pattern", "offered", "latency", "bound", "thruput", "state")
	}
	onDone := func(i int, r core.Result) {
		if c.pub != nil {
			c.pub.PublishPoint(i, r)
		}
		if c.prog != nil {
			c.prog.Step(fmt.Sprintf("%s rho=%.2f lat=%.1f", r.Algorithm, r.OfferedLoad, r.AvgLatency))
		}
	}
	spec := core.FigureSpec{ID: "grid", Pattern: cfg.Pattern, Switching: cfg.Switching, Algorithms: algs, Loads: loads}
	fr, err := core.RunFigure(spec, cfg, onDone)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for _, series := range fr.Series {
		for _, r := range series.Results {
			switch c.format {
			case "csv":
				fmt.Fprintf(w, "%s,%s,%s,%.3f,%.2f,%.2f,%.4f,%.5f,%d,%d,%d,%d,%s\n",
					r.Algorithm, r.Pattern, r.Switching, r.OfferedLoad, r.AvgLatency, r.LatencyBound,
					r.Throughput, r.InjectionRate, r.Generated, r.Dropped, r.Delivered, r.Samples, r.State())
			case "json":
				r.ChannelFlits = nil // keep the records small
				if err := enc.Encode(r); err != nil {
					return err
				}
			default:
				fmt.Fprintf(w, "%-*s %-*s %8.2f %10.1f %10.1f %10.4f %11s\n",
					algW, r.Algorithm, patW, r.Pattern, r.OfferedLoad, r.AvgLatency, r.LatencyBound, r.Throughput, r.State())
			}
			if cfg.Telemetry != nil && cfg.Telemetry.Metrics && r.Telemetry != nil {
				top := r.Telemetry.BusiestChannels(1)[0]
				c.note("# %s rho=%.2f: max ch util %.1f%% (ch %d), head-blocked %d, inj backlog mean %.2f, drops %d\n",
					r.Algorithm, r.OfferedLoad, 100*r.Telemetry.ChannelUtilization(top), top,
					r.Telemetry.TotalHeadBlocked(), r.Telemetry.InjQueueMean, r.Telemetry.Drops)
			}
			if f := r.Forensics; cfg.Forensics != nil && f != nil {
				blame := "no head-blocked worms"
				if top := f.TopRoots(1); len(top) > 0 {
					blame = fmt.Sprintf("top root ch %d carries %.1f%% of %d blamed worm-cycles (%.1f%% attributed)",
						top[0].Ch, 100*top[0].Share, f.BlockedObserved, 100*f.AttributedFraction())
				}
				c.note("# %s rho=%.2f: %s, %d wait-for cycles\n", r.Algorithm, r.OfferedLoad, blame, f.WaitCycles)
			}
			if c.tracePath != "" {
				path := fmt.Sprintf("%s-%s-%.2f.json", c.tracePath, r.Algorithm, r.OfferedLoad)
				if err := writeTrace(path, c.traceFormat, r.TraceEvents); err != nil {
					return err
				}
			}
		}
		peak, at := core.PeakThroughput(series.Results)
		c.note("# %s peak throughput %.3f at offered %.2f\n", series.Algorithm, peak, at)
	}
	return nil
}

// nameWidths returns the widths of a table's algorithm and pattern columns:
// at least 8 and 10, and wide enough for every name a row prints, so the
// header is sized before the first row runs. The grid's state column is 11
// wide, the longest core.Result.State ("max-samples").
func nameWidths(algs []string, pattern string) (algW, patW int) {
	algW = 8
	for _, alg := range algs {
		algW = max(algW, len(alg))
	}
	return algW, max(10, len(pattern))
}

// replicated simulates every point at n seeds as independent runs across the
// machine's cores, one core.SweepReplicated call per algorithm, and publishes
// each replica to the observatory as its algorithm's call returns. A grid
// prints a row per point (mean latency, across-seed spread, mean throughput,
// deadlocks) and notes each algorithm's simulation rate on stderr. One point
// prints per-seed results plus the aggregate, and a deadlocked replica makes
// the error errDeadlocked, after the report.
func (c *cli) replicated(cfg core.Config, algs []string, loads []float64, n int) error {
	eff := cfg
	eff.ApplyDefaults()
	seeds := core.ReplicaSeeds(cfg.Seed, n)
	workers := runtime.GOMAXPROCS(0)
	w := c.stdout
	algW, patW := nameWidths(algs, eff.Pattern)
	switch c.format {
	case "csv":
		fmt.Fprintln(w, "algorithm,pattern,switching,offered,mean_latency,latency_spread,mean_throughput,replicas,deadlocks")
	case "table":
		fmt.Fprintf(w, "%-*s %-*s %8s %12s %10s %10s %10s\n", algW, "alg", patW, "pattern", "offered", "mean_lat", "spread", "thruput", "deadlocks")
	}
	enc := json.NewEncoder(w)
	for ai, alg := range algs {
		a := cfg
		a.Algorithm = alg
		start := time.Now()
		reps, err := core.SweepReplicated(a, loads, seeds, workers)
		wall := time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		var cycles int64
		for i, rr := range reps {
			for j, r := range rr.Replicas {
				cycles += r.Cycles
				if c.pub != nil {
					c.pub.PublishPoint((ai*len(loads)+i)*n+j, r)
				}
			}
		}
		if c.format == "" { // one point, so this is the only iteration
			c.finish()
			agg := reps[0]
			printHeader(w, cfg, agg.Replicas[0])
			fmt.Fprintf(w, "replicas     : %d seeds, independent runs on %d workers\n", n, min(workers, n))
			for r, res := range agg.Replicas {
				fmt.Fprintf(w, "  seed %-#18x: %s\n", seeds[r], res.String())
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
		for _, rr := range reps {
			switch c.format {
			case "csv":
				fmt.Fprintf(w, "%s,%s,%s,%.3f,%.2f,%.2f,%.4f,%d,%d\n",
					alg, eff.Pattern, eff.Switching, rr.OfferedLoad, rr.MeanLatency, rr.LatencySpread,
					rr.MeanThroughput, len(rr.Replicas), rr.Deadlocks)
			case "json":
				rr.Replicas = nil // keep the records small
				if err := enc.Encode(rr); err != nil {
					return err
				}
			default:
				fmt.Fprintf(w, "%-*s %-*s %8.2f %12.1f %10.1f %10.4f %10d\n",
					algW, alg, patW, eff.Pattern, rr.OfferedLoad, rr.MeanLatency, rr.LatencySpread, rr.MeanThroughput, rr.Deadlocks)
			}
		}
		c.note("# %s: %d seeds x %d loads, %.3g replica-cycles/s aggregate over %v wall\n",
			alg, n, len(loads), float64(cycles)/wall.Seconds(), wall.Round(time.Millisecond))
		if c.prog != nil {
			c.prog.Step(alg)
		}
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
		fmt.Fprintf(w, "    ch %4d  %s %6.1f%%\n", ch, channelName(g, ch), 100*s.ChannelUtilization(ch))
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
		fmt.Fprintf(w, "    ch %4d  %s %5.1f%% of blame\n", r.Ch, channelName(g, r.Ch), 100*r.Share)
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
	title := fmt.Sprintf("%s %s rho=%.2f — blame (every %d)",
		cfg.Algorithm, cfg.Pattern, cfg.OfferedLoad, f.SampleEvery)
	svg := viz.BlameSVG(cfg.Grid(), f.BlameByChannel, f.TopRoots(4), title)
	return os.WriteFile(prefix+".svg", []byte(svg), 0o644)
}

// channelName renders a channel by its endpoints, e.g. "(3,2) d1+ -> (3,3)   "
// (padded to align a column), with "edge" downstream of a mesh boundary.
func channelName(g *topology.Grid, ch int) string {
	up, dim, dir := g.ChannelInfo(ch)
	down := "edge"
	if d := g.Neighbor(up, dim, dir); d >= 0 {
		down = nodeName(g, d)
	}
	return fmt.Sprintf("%s d%d%v -> %-8s", nodeName(g, up), dim, dir, down)
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

// traceWriters maps each -traceformat value to its encoder.
var traceWriters = map[string]func(io.Writer, []telemetry.Event) error{
	"chrome": telemetry.WriteChromeTrace,
	"jsonl":  telemetry.WriteJSONL,
}

// writeTrace exports the lifecycle trace in format, a key of traceWriters.
func writeTrace(path, format string, evs []telemetry.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := traceWriters[format](f, evs); err != nil {
		return err
	}
	return f.Close()
}
