package observatory

import (
	"fmt"
	"io"
	"strconv"

	"wormsim/internal/core"
	"wormsim/internal/forensics"
	"wormsim/internal/stats"
	"wormsim/internal/topology"
)

// WriteMetrics renders the current snapshot in the Prometheus text
// exposition format (version 0.0.4). Before the first publication only
// wormsim_observatory_up is exported. Output is a pure function of the
// snapshot, so a deterministic run yields a byte-identical exposition — the
// golden test in metrics_test.go holds it.
func (p *Publisher) WriteMetrics(w io.Writer) error {
	mw := &metricWriter{w: w}
	mw.metric("wormsim_observatory_up", "gauge",
		"Whether the observatory publisher is serving.", "", 1)
	mw.metric("wormsim_sse_dropped_frames_total", "counter",
		"SSE frames dropped because a subscriber's buffer was full (slow clients never stall the simulation).",
		"", float64(p.DroppedFrames()))
	if st := p.store.Load(); st != nil {
		mw.metric("wormsim_runstore_records", "gauge",
			"Distinct runs held by the attached run store.", "", float64(st.Len()))
		mw.metric("wormsim_runstore_hits_total", "counter",
			"Run-store lookups answered from the store (simulations skipped entirely).", "", float64(st.Hits()))
		mw.metric("wormsim_runstore_misses_total", "counter",
			"Run-store lookups that had to simulate.", "", float64(st.Misses()))
	}

	s := p.Snapshot()
	if s == nil {
		return mw.err
	}
	ev := s.Tick
	t := ev.Counters

	mw.metric("wormsim_run_info", "gauge",
		"Identity of the run behind the current snapshot (value is always 1).",
		fmt.Sprintf(`{algorithm=%q,pattern=%q,switching=%q,k="%d",n="%d",mesh="%v",load=%q,seed="%d"}`,
			ev.Algorithm, ev.Pattern, string(ev.Switching), ev.K, ev.N, ev.Mesh,
			formatFloat(ev.OfferedLoad), ev.Seed), 1)
	mw.metric("wormsim_cycles_total", "counter",
		"Simulated cycles completed by the current run.", "", float64(ev.Cycle))
	mw.metric("wormsim_simulated_cycles_per_second", "gauge",
		"Simulated-cycle rate estimated across the last two ticks.", "", s.CyclesPerSec)
	mw.metric("wormsim_worms_in_flight", "gauge",
		"Worms currently occupying network resources.", "", float64(ev.InFlight))
	for _, c := range []struct {
		event string
		v     int64
	}{{"generated", t.Generated}, {"admitted", t.Admitted}, {"dropped", t.Dropped}, {"delivered", t.Delivered}} {
		mw.metric("wormsim_messages_total", "counter",
			"Message lifecycle totals by event.",
			fmt.Sprintf(`{event=%q}`, c.event), float64(c.v))
	}
	mw.metric("wormsim_flit_moves_total", "counter",
		"Flit transfers across physical channels.", "", float64(t.FlitMoves))

	// The observer summaries and the channel labels come from the last
	// loaded state, which may trail the tick by one poll.
	var st core.TickEvent
	if s.State != nil {
		st = *s.State
	}
	if tel := st.Telemetry; tel != nil {
		mw.metric("wormsim_congestion_drops_total", "counter",
			"Messages discarded by congestion control.", "", float64(tel.Drops))
		for class, v := range tel.HeadBlockedByClass {
			mw.metric("wormsim_head_blocked_cycles_total", "counter",
				"Cycles a worm header bid for an output virtual channel and found none free, by routing class.",
				fmt.Sprintf(`{class="%d"}`, class), float64(v))
		}
		for class, v := range tel.VCOccupancyMean {
			mw.metric("wormsim_vc_occupancy_mean", "gauge",
				"Mean owned virtual channels per routing class, sampled each cycle.",
				fmt.Sprintf(`{class="%d"}`, class), v)
		}
		for class, v := range tel.VCOccupancyMax {
			mw.metric("wormsim_vc_occupancy_max", "gauge",
				"Peak owned virtual channels per routing class.",
				fmt.Sprintf(`{class="%d"}`, class), v)
		}
		mw.metric("wormsim_injection_backlog_mean", "gauge",
			"Mean admitted-but-not-fully-injected messages across all nodes.", "", tel.InjQueueMean)
		mw.metric("wormsim_injection_backlog_max", "gauge",
			"Peak admitted-but-not-fully-injected messages.", "", tel.InjQueueMax)
		mw.metric("wormsim_trace_events_recorded", "gauge",
			"Lifecycle trace events retained in the collector ring.", "", float64(tel.TraceEvents))

		// Per-channel busy cycles, labeled with the channel's topology
		// coordinates. A 16-ary 2-cube torus has 1024 channel slots; one
		// series each is fine for a scrape.
		g := topology.New(st.K, st.N, st.Mesh)
		for ch, busy := range tel.ChannelBusy {
			if busy == 0 {
				continue // idle channels stay out of the exposition
			}
			node, dim, dir := g.ChannelInfo(ch)
			mw.metric("wormsim_channel_busy_cycles_total", "counter",
				"Cycles each physical channel slot moved a flit (slots with zero traffic are omitted).",
				fmt.Sprintf(`{ch="%d",node="%d",dim="%d",dir=%q}`, ch, node, dim, dir.String()), float64(busy))
		}
	}

	if f := st.Forensics; f != nil {
		mw.metric("wormsim_forensics_samples_total", "counter",
			"Wait-for graph samples taken by the congestion forensics analyzer.", "", float64(f.Samples))
		mw.metric("wormsim_forensics_blocked_observed_total", "counter",
			"Head-blocked worm-cycles observed by forensics (sampled observations scaled by the sampling period).",
			"", float64(f.BlockedObserved))
		mw.metric("wormsim_forensics_attributed_total", "counter",
			"Head-blocked worm-cycles successfully attributed to a root-cause channel.", "", float64(f.Attributed))
		mw.metric("wormsim_forensics_unattributed_total", "counter",
			"Head-blocked worm-cycles with no admissible output channel to blame.", "", float64(f.Unattributed))
		mw.metric("wormsim_forensics_congestion_trees_total", "counter",
			"Congestion trees (maximal wait-for components) seen across all samples.", "", float64(f.Trees))
		mw.metric("wormsim_forensics_wait_cycles_total", "counter",
			"Runtime wait-for cycles detected (near-deadlock early warning).", "", float64(f.WaitCycles))

		g := topology.New(st.K, st.N, st.Mesh)
		for ch, v := range f.BlameByChannel {
			if v == 0 {
				continue // channels never blamed stay out of the exposition
			}
			node, dim, dir := g.ChannelInfo(ch)
			mw.metric("wormsim_blame_cycles_total", "counter",
				"Head-blocked worm-cycles attributed to each root-cause channel (zero-blame channels omitted).",
				fmt.Sprintf(`{ch="%d",node="%d",dim="%d",dir=%q}`, ch, node, dim, dir.String()), float64(v))
		}

		for _, ca := range f.Anatomy {
			if ca.Delivered == 0 {
				continue
			}
			for _, comp := range []struct {
				name string
				cs   forensics.ComponentStats
			}{{"inject", ca.Inject}, {"alloc", ca.Alloc}, {"behind", ca.Behind}, {"drain", ca.Drain}} {
				mw.histogram("wormsim_latency_component_cycles",
					"Delivered-worm latency decomposition by routing class and component (inject-queue wait, VC-allocation stalls, blocked-behind time, ideal drain).",
					fmt.Sprintf(`class="%d",component="%s"`, ca.Class, comp.name),
					comp.cs.Buckets, ca.Delivered, comp.cs.Mean*float64(ca.Delivered))
			}
		}
	}

	if s.Phases != nil {
		mw.metric("wormsim_phase_cycles_total", "counter",
			"Engine cycles observed by the phase profiler.", "", float64(s.Phases.Cycles))
		for _, ph := range s.Phases.Phases {
			mw.metric("wormsim_phase_seconds_total", "counter",
				"Engine wall time attributed to each pipeline phase.",
				fmt.Sprintf(`{phase=%q}`, ph.Phase), float64(ph.Nanos)/1e9)
		}
	}

	if s.SweepTotal > 0 {
		mw.metric("wormsim_sweep_points_total", "gauge",
			"Points in the running sweep.", "", float64(s.SweepTotal))
		mw.metric("wormsim_sweep_points_done", "gauge",
			"Sweep points completed so far.", "", float64(s.SweepDone))
	}
	return mw.err
}

// metricWriter writes exposition lines, emitting HELP/TYPE headers once per
// metric family and remembering the first error.
type metricWriter struct {
	w        io.Writer
	lastName string
	err      error
}

func (mw *metricWriter) metric(name, kind, help, labels string, v float64) {
	if mw.err != nil {
		return
	}
	if name != mw.lastName {
		_, mw.err = fmt.Fprintf(mw.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		if mw.err != nil {
			return
		}
		mw.lastName = name
	}
	_, mw.err = fmt.Fprintf(mw.w, "%s%s %s\n", name, labels, formatFloat(v))
}

// histogram writes one Prometheus histogram series from pre-cumulated
// buckets: _bucket lines (plus the mandatory le="+Inf"), then _sum and
// _count. The HELP/TYPE header is emitted once per family, keyed on the base
// name like metric's.
func (mw *metricWriter) histogram(name, help, labels string, buckets []stats.CumBucket, count int64, sum float64) {
	if mw.err != nil {
		return
	}
	if name != mw.lastName {
		_, mw.err = fmt.Fprintf(mw.w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		if mw.err != nil {
			return
		}
		mw.lastName = name
	}
	for _, b := range buckets {
		if _, mw.err = fmt.Fprintf(mw.w, "%s_bucket{%s,le=%q} %d\n",
			name, labels, formatFloat(b.UpperBound), b.Count); mw.err != nil {
			return
		}
	}
	if _, mw.err = fmt.Fprintf(mw.w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, count); mw.err != nil {
		return
	}
	if _, mw.err = fmt.Fprintf(mw.w, "%s_sum{%s} %s\n", name, labels, formatFloat(sum)); mw.err != nil {
		return
	}
	_, mw.err = fmt.Fprintf(mw.w, "%s_count{%s} %d\n", name, labels, count)
}

// formatFloat renders v the way Prometheus clients do: shortest
// round-trippable decimal.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
