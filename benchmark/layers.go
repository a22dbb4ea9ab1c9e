package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/runstore"
	"wormsim/internal/stats"
	"wormsim/internal/telemetry"
	"wormsim/internal/traffic"
)

// tracedWarmReps is how many warm reruns the traced run times for the
// runstore layer metrics; warm_wall_ms itself comes from the untraced run.
const tracedWarmReps = 10

// runTraced is the per-layer run: one untraced cold round as the reference,
// one traced round (PhaseProf attached, a span around every unit), then the
// replays that price the layers too small to see inside a point. It writes
// the spans as a Chrome trace.
func runTraced(w io.Writer, sp spec, o options) (outcome, error) {
	rep := newReport(w, sp.name, perLayer)
	e, err := setUp(sp, o)
	if err != nil {
		return outcome{}, err
	}
	defer e.close()
	parallel := sp.replicas > 0

	plain, err := runRound(e, e.store, nil)
	if cerr := e.store.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("benchmark: close store: %w", cerr)
	}
	if err != nil {
		return outcome{}, err
	}

	tr := newTracer()
	root := tr.begin("workload "+sp.name, "", -1)
	tracedDir := filepath.Join(e.dir, "traced")
	store, err := runstore.Open(tracedDir)
	if err != nil {
		return outcome{}, err
	}
	// The every-cycle profiler, on the tracer's clock: the stock one samples
	// one cycle in eight, which aliases with forensics' 64-cycle sampling
	// and overstated fig4_observed's engine time by 7%.
	pr := &probe{tr: tr, prof: telemetry.NewPhaseProfilerClock(func() int64 { return int64(tr.now()) }), root: root}
	traced, err := runRound(e, store, pr)
	if cerr := store.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("benchmark: close store: %w", cerr)
	}
	if err != nil {
		return outcome{}, err
	}

	warmSpan := tr.begin("warm reruns", "", root)
	var openMs []float64
	var warm []core.Result
	for i := 0; i < tracedWarmReps; i++ {
		_, ms, res, err := warmRun(e, tracedDir)
		if err != nil {
			return outcome{}, err
		}
		openMs, warm = append(openMs, ms), res
	}
	tr.end(warmSpan)
	ck, err := verify(sp, o, []roundData{plain, traced}, warm)
	if err != nil {
		return outcome{}, err
	}

	// Engine: totals, per phase, per algorithm.
	results := plain.flat()
	var engineNs, steps, flitHops, delivered, dropped, samples, converged int64
	phaseNs := make([]int64, len(phaseNames))
	algNs, algSteps := map[string]int64{}, map[string]int64{}
	for u := range e.units {
		for p, ns := range pr.phaseNs[u] {
			phaseNs[p] += ns
			engineNs += ns
			algNs[e.units[u].cfg.Algorithm] += ns
		}
		steps += pr.steps[u]
		algSteps[e.units[u].cfg.Algorithm] += pr.steps[u]
	}
	for _, r := range results {
		for _, f := range r.ChannelFlits {
			flitHops += f
		}
		delivered += r.Delivered
		dropped += r.Dropped
		samples += int64(r.Samples)
		if r.Converged {
			converged++
		}
	}
	cycles := simCycles(results)
	rep.set("network.step_ns_per_cycle", float64(engineNs)/float64(steps), fmt.Sprintf("engine %.3fs over %d steps", float64(engineNs)/1e9, steps))
	rep.set("network.ns_per_flit_hop", float64(engineNs)/float64(flitHops), "")
	for p, name := range phaseNames {
		rep.set("network."+name+"_share", float64(phaseNs[p])/float64(engineNs), "")
	}
	if !parallel {
		for _, alg := range sp.algs {
			rep.set("network.step_ns_per_cycle."+alg, float64(algNs[alg])/float64(algSteps[alg]), "")
		}
	} else {
		rep.set("network.batch_ns_per_replica_cycle", float64(engineNs)/cycles, "engine time summed over workers")
	}
	rep.set("network.cycles", cycles, "exact")
	rep.set("network.flit_hops", float64(flitHops), "exact")
	rep.set("network.delivered", float64(delivered), "exact")
	rep.set("network.dropped", float64(dropped), "exact")

	cfgs := pointConfigs(e.units)
	netMs, trafMs, hashUs, err := replaySetUp(tr, root, cfgs)
	if err != nil {
		return outcome{}, err
	}
	rep.set("network.setup_ms", netMs, "replayed network.New, mean per point")
	rep.set("traffic.setup_ms", trafMs, "replayed traffic.Parse + 2x NewBernoulli, mean per point")

	// Run loop: what a point costs beyond the engine's Step.
	busy := sum(traced.wall)
	if parallel {
		busy = sum(traced.cpu) // engine time is summed over workers, so compare with CPU time
	}
	rep.set("core.overhead_share", 1-float64(engineNs)/1e9/busy, "1 - engine time / point time, traced round")
	rep.set("core.samples_mean", float64(samples)/float64(len(results)), "exact")
	rep.set("core.converged_share", float64(converged)/float64(len(results)), "exact")
	if !parallel {
		ms := make([]float64, len(plain.wall))
		for i, s := range plain.wall {
			ms[i] = s * 1e3
		}
		rep.set("core.point_p50_ms", quantile(ms, 0.5), fmt.Sprintf("n=%d", len(ms)))
		rep.set("core.point_tail_ms", nthSlowest(ms, 11), fmt.Sprintf("11th slowest of n=%d", len(ms)))
	}
	rep.set("core.hash_us", hashUs, "replayed Config.Hash, mean per point")
	rep.set("core.allocs_per_point", float64(plain.mallocs)/float64(len(results)), "Mallocs over the untraced round")
	rep.set("core.heap_peak_mb", float64(pr.heapPeak)/1e6, "max HeapInuse at point boundaries")
	if parallel {
		speedup, err := sweepSpeedup(e, sum(plain.wall))
		if err != nil {
			return outcome{}, err
		}
		rep.set("core.sweep_speedup_w2", speedup, "wall(workers=1) / wall(workers=2)")
	}
	rep.set("stats.add_ns_per_delivery", replayStats(tr, root), "replayed Stratified.Add + Welford.Add + Histogram.Add")

	// Store: opens from the warm reruns, writes and hits replayed on the real store.
	storeUs, lookupUs, recordBytes, err := replayStore(tr, root, filepath.Join(e.dir, "replay"), cfgs, results)
	if err != nil {
		return outcome{}, err
	}
	rep.set("runstore.open_ms", quantile(openMs, 0.5), fmt.Sprintf("median of n=%d", len(openMs)))
	rep.set("runstore.lookup_us", lookupUs, fmt.Sprintf("replayed Lookup hit, mean of %d", len(results)))
	rep.set("runstore.store_us", storeUs, fmt.Sprintf("replayed Store, mean of %d", len(results)))
	rep.set("runstore.bytes_per_record", recordBytes, "")

	if sp.observed {
		frames, droppedFrames := e.obs.stop()
		e.obs = nil
		rep.set("observatory.frames", float64(frames), "received by the subscriber over both rounds")
		rep.set("observatory.dropped_frames", float64(droppedFrames), "")
		over, err := observerOverheads(tr, root, sp, o)
		if err != nil {
			return outcome{}, err
		}
		for _, name := range []string{"telemetry", "forensics", "observatory"} {
			rep.set(name+".overhead_share", over[name], "nbc at rho 0.2 and 0.6, attached alone vs bare")
		}
	}
	rep.set("trace.overhead_share", sum(traced.wall)/sum(plain.wall)-1, "traced / untraced cold round - 1")

	tr.end(root)
	if err := tr.write(o.traceFile); err != nil {
		return outcome{}, err
	}
	out := rep.finish(ck)
	fmt.Fprintf(w, "trace: %d spans -> %s; worst point |sum of self times / span - 1| = %.4f\n",
		len(tr.spans), o.traceFile, tr.worstSelfGap("core.run_cached"))
	return out, nil
}

// pointConfigs returns the config behind every Result of the workload, in
// the order roundData.flat returns the Results.
func pointConfigs(units []unit) []core.Config {
	var cfgs []core.Config
	for _, u := range units {
		if u.seeds == nil {
			cfgs = append(cfgs, u.cfg)
			continue
		}
		for _, load := range u.loads {
			for _, seed := range u.seeds {
				c := u.cfg
				c.OfferedLoad, c.Seed = load, seed
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

// replaySetUp repeats, outside any point, the set-up core.Run does inside
// one — workload construction and network.New — and the config hash
// RunCached computes, as spans sharing the point's id. It returns the mean
// milliseconds (microseconds for the hash) per point.
func replaySetUp(tr *tracer, root int, cfgs []core.Config) (netMs, trafMs, hashUs float64, err error) {
	var netT, trafT, hashT time.Duration
	for _, c := range cfgs {
		id := c.Hash()[:12]
		c.ApplyDefaults()
		g := c.Grid()
		alg, err := routing.Get(c.Algorithm)
		if err != nil {
			return 0, 0, 0, err
		}
		policy, err := routing.GetPolicy(c.Policy)
		if err != nil {
			return 0, 0, 0, err
		}

		sp := tr.begin("traffic.setup", id, root)
		pattern, err := traffic.Parse(g, c.Pattern)
		if err != nil {
			return 0, 0, 0, err
		}
		probe := traffic.NewBernoulli(g, pattern, 0, c.Seed)
		lambda := c.OfferedLoad * float64(2*g.N()) / (float64(c.MsgLen) * probe.MeanDistance())
		wl := traffic.NewBernoulli(g, pattern, lambda, c.Seed)
		tr.end(sp)
		trafT += tr.dur(sp)

		sp = tr.begin("network.new", id, root)
		_, err = network.New(network.Config{
			Grid: g, Algorithm: alg, Policy: policy, Workload: wl,
			MsgLen: c.MsgLen, BufDepth: c.BufDepth, CCLimit: c.CCLimit,
			InjectionPorts: c.InjectionPorts, RouteDelay: c.RouteDelay, Seed: c.Seed,
		})
		tr.end(sp)
		if err != nil {
			return 0, 0, 0, err
		}
		netT += tr.dur(sp)

		sp = tr.begin("core.hash", id, root)
		_ = c.Hash()
		tr.end(sp)
		hashT += tr.dur(sp)
	}
	n := float64(len(cfgs))
	return netT.Seconds() * 1e3 / n, trafT.Seconds() * 1e3 / n, float64(hashT.Microseconds()) / n, nil
}

// replayStore repeats what RunCached asks of the run store, on the real
// store in a fresh directory: Store of every cold Result, then — reopened,
// as a warm run finds it — a Lookup hit of each. The harness cannot time
// these where they happen: a ResultCache decorator here would join the
// call graph wormlint's purity certificates pin. It returns the mean
// microseconds per Store and per Lookup and the log's bytes per record.
func replayStore(tr *tracer, root int, dir string, cfgs []core.Config, results []core.Result) (storeUs, lookupUs, recordBytes float64, err error) {
	st, err := runstore.Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	hashes := make([]string, len(cfgs))
	var storeT, lookupT time.Duration
	for i, c := range cfgs {
		hashes[i] = c.Hash()
		canon := c.Canonical()
		sp := tr.begin("runstore.store", hashes[i][:12], root)
		err := st.Store(hashes[i], canon, results[i])
		tr.end(sp)
		if err != nil {
			st.Close()
			return 0, 0, 0, fmt.Errorf("benchmark: replay store: %w", err)
		}
		storeT += tr.dur(sp)
	}
	if err := st.Close(); err != nil {
		return 0, 0, 0, fmt.Errorf("benchmark: close replay store: %w", err)
	}
	fi, err := os.Stat(st.Path())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("benchmark: replay store: %w", err)
	}
	if st, err = runstore.Open(dir); err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	for _, h := range hashes {
		sp := tr.begin("runstore.lookup", h[:12], root)
		_, ok := st.Lookup(h)
		tr.end(sp)
		if !ok {
			return 0, 0, 0, fmt.Errorf("benchmark: replay store: %s not found after reopen", h[:12])
		}
		lookupT += tr.dur(sp)
	}
	n := float64(len(cfgs))
	return float64(storeT.Microseconds()) / n, float64(lookupT.Nanoseconds()) / 1e3 / n, float64(fi.Size()) / n, nil
}

// replayStats prices the delivery hook core.Run installs: one observation
// into the stratified estimator, the hop-class accumulator and the latency
// histogram, over a fixed synthetic stream of hop classes and latencies.
func replayStats(tr *tracer, root int) float64 {
	const adds = 1 << 20
	weights := make([]float64, 17) // hop classes 0..16 of the 16-ary 2-cube
	for i := range weights {
		weights[i] = 1
	}
	strat := stats.NewStratified(weights)
	hop := make([]stats.Welford, len(weights))
	var hist stats.Histogram
	sp := tr.begin("stats.add", "", root)
	for j := 0; j < adds; j++ {
		class, lat := j%len(weights), float64(20+(j*7919)%400)
		strat.Add(class, lat)
		hop[class].Add(lat)
		hist.Add(lat)
	}
	tr.end(sp)
	return float64(tr.dur(sp)) / adds
}

// sweepSpeedup reruns the parallel workload cold on one worker and returns
// wall(workers=1) / wall(workers=2). On a one-core host both are one
// worker and the ratio is 1 by definition.
func sweepSpeedup(e *env, wallW2 float64) (float64, error) {
	if workers() < 2 {
		return 1, nil
	}
	store, err := runstore.Open(filepath.Join(e.dir, "workers1"))
	if err != nil {
		return 0, err
	}
	defer store.Close()
	var wallW1 float64
	for _, u := range e.units {
		t0 := now()
		if _, err := u.run(hooks{cache: store, workers: 1}); err != nil {
			return 0, fmt.Errorf("benchmark: workers=1 sweep: %w", err)
		}
		wallW1 += since(t0).Seconds()
	}
	return wallW1 / wallW2, nil
}

// observerOverheads times nbc at rho 0.2 and 0.6 bare and with each
// observer attached alone, three interleaved repetitions each, and returns
// each observer's (sum of minima / bare sum of minima) - 1.
func observerOverheads(tr *tracer, root int, sp spec, o options) (map[string]float64, error) {
	const reps = 3
	variants := []string{"bare", "telemetry", "forensics", "observatory"}
	best := map[string]float64{}
	for _, load := range []float64{0.2, 0.6} {
		fastest := map[string]float64{}
		for rep := 0; rep < reps; rep++ {
			for _, v := range variants {
				c := sp.base(o.k, o.m, o.seed)
				c.Algorithm, c.OfferedLoad = "nbc", load
				c.Telemetry, c.Forensics = nil, nil
				var obs *observer
				switch v {
				case "telemetry":
					c.Telemetry = &telemetry.Options{Metrics: true}
				case "forensics":
					c.Forensics = &forensics.Options{}
				case "observatory":
					obs = newObserver()
					c.OnTick = obs.pub.PublishTick
				}
				s := tr.begin("overhead."+v, c.Hash()[:12], root)
				_, err := core.Run(c)
				tr.end(s)
				if obs != nil {
					obs.stop()
				}
				if err != nil {
					return nil, fmt.Errorf("benchmark: overhead run %s at rho=%g: %w", v, load, err)
				}
				d := tr.dur(s).Seconds()
				if cur, ok := fastest[v]; !ok || d < cur {
					fastest[v] = d
				}
			}
		}
		for _, v := range variants {
			best[v] += fastest[v]
		}
	}
	over := map[string]float64{}
	for _, v := range variants[1:] {
		over[v] = best[v]/best["bare"] - 1
	}
	return over, nil
}
