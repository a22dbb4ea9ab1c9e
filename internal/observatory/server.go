package observatory

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"wormsim/internal/runstore"
	"wormsim/internal/topology"
	"wormsim/internal/viz"
)

// Server is the observatory's HTTP front end. It serves on its own
// goroutines; the simulation never blocks on it (all shared state flows
// through the Publisher's atomic snapshot and the drop-on-full SSE hub).
type Server struct {
	pub   *Publisher
	store *runstore.Store // backs the read-only /api/* and /compare.svg; may be nil
	ln    net.Listener
	srv   *http.Server
}

// Listen starts serving pub on addr (e.g. ":8080", or "127.0.0.1:0" to let
// the kernel pick a test port). store backs the /api/* and /compare.svg
// endpoints and the run-store counters on /metrics; it may be nil, and
// those endpoints then answer 503 (start the CLI with -store DIR). It also
// enables the runtime's block and mutex profiles — the cost is only paid
// when an observatory is actually attached.
func Listen(addr string, pub *Publisher, store *runstore.Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("observatory: %w", err)
	}
	runtime.SetBlockProfileRate(1000)
	runtime.SetMutexProfileFraction(100)
	pub.store.Store(store)
	s := &Server{pub: pub, store: store, ln: ln}
	s.srv = &http.Server{Handler: s.mux(), ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed after Close
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all handler goroutines.
func (s *Server) Close() error {
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(0)
	return s.srv.Close()
}

func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/heatmap", s.handleHeatmapPage)
	mux.HandleFunc("/heatmap.svg", s.handleHeatmapSVG)
	mux.HandleFunc("/blame", s.handleBlame)
	mux.HandleFunc("/blame.svg", s.handleBlameSVG)
	mux.HandleFunc("/api/runs", s.withStore(s.handleRuns))
	mux.HandleFunc("/api/runs/", s.withStore(s.handleRun))
	mux.HandleFunc("/api/compare", s.withStore(s.handleCompare))
	mux.HandleFunc("/compare.svg", s.withStore(s.handleCompareSVG))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// withStore gates a handler on a run store being attached, and on a GET:
// the store is written only by runs, never over HTTP.
func (s *Server) withStore(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.store == nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no run store attached (start with -store DIR)"})
			return
		}
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{
				"error": "the run store is read-only over HTTP; record runs with wormsim -store DIR"})
			return
		}
		h(w, r)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	status := "waiting for first tick"
	if snap := s.pub.latest(); snap != nil {
		ev := snap.Tick
		status = fmt.Sprintf("%s %s rho=%.2f — cycle %d, %d worms in flight",
			ev.Algorithm, ev.Pattern, ev.OfferedLoad, ev.Cycle, ev.InFlight)
		if snap.SweepTotal > 0 {
			status += fmt.Sprintf(" — sweep %d/%d points done", snap.SweepDone, snap.SweepTotal)
		}
	}
	fmt.Fprintf(w, `<!doctype html><meta charset="utf-8"><title>wormsim observatory</title>
<body style="font-family:system-ui,sans-serif;background:#fcfcfb;color:#0b0b0b;margin:2rem">
<h1 style="font-size:1.2rem">wormsim observatory</h1>
<p style="color:#52514e">%s</p>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/snapshot">/snapshot</a> — full state as JSON</li>
<li><a href="/events">/events</a> — SSE stream (ticks, sweep points, sampled worm events)</li>
<li><a href="/heatmap">/heatmap</a> — live channel-utilization heatmap</li>
<li><a href="/blame">/blame</a> — congestion forensics: blame summary, top root channels, latency anatomy (needs -forensics)</li>
<li><a href="/blame.svg">/blame.svg</a> — blame-mass heatmap, congestion-tree roots ringed</li>
<li><a href="/api/runs">/api/runs</a> — run store: the recorded runs, read-only (record with wormsim -store DIR)</li>
<li><a href="/api/compare">/api/compare?a=ALG&amp;b=ALG</a> — aligned A-vs-B curves from the store</li>
<li><a href="/compare.svg">/compare.svg?a=ALG&amp;b=ALG</a> — the comparison as an SVG overlay plot</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — CPU, heap, block and mutex profiles</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar</li>
</ul></body>
`, status)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.pub.WriteMetrics(w) //nolint:errcheck // client gone; nothing to do
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap := s.pub.Snapshot()
	if snap == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no tick published yet"})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleEvents is the server-sent-event stream: it writes the stream
// headers and an opening frame, then relays the publisher's frames until
// the client goes away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	frames, cancel := s.pub.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Open with the current state so late joiners see something immediately.
	if snap := s.pub.latest(); snap != nil {
		w.Write(tickMessage(snap.Tick, snap.CyclesPerSec)) //nolint:errcheck
	}
	fl.Flush()
	for {
		select {
		case frame := <-frames:
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// blameRoot is one labeled entry of /blame's top-roots table: the root
// channel's topology coordinates plus the node it feeds (where the contended
// buffers physically sit).
type blameRoot struct {
	Ch    int     `json:"ch"`
	Node  int     `json:"node"`
	Dim   int     `json:"dim"`
	Dir   string  `json:"dir"`
	Feeds int     `json:"feeds"`
	Blame int64   `json:"blame"`
	Roots int64   `json:"roots"`
	Share float64 `json:"share"`
}

func (s *Server) handleBlame(w http.ResponseWriter, _ *http.Request) {
	snap := s.pub.Snapshot()
	if snap == nil || snap.State == nil || snap.State.Forensics == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no forensics summary yet (run with -forensics)"})
		return
	}
	ev := snap.State
	f := ev.Forensics
	g := topology.New(ev.K, ev.N, ev.Mesh)
	roots := []blameRoot{}
	for _, r := range f.TopRoots(8) {
		node, dim, dir := g.ChannelInfo(r.Ch)
		roots = append(roots, blameRoot{
			Ch: r.Ch, Node: node, Dim: dim, Dir: dir.String(),
			Feeds: g.Neighbor(node, dim, dir),
			Blame: r.Blame, Roots: r.Roots, Share: r.Share,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Algorithm string      `json:"algorithm"`
		Pattern   string      `json:"pattern"`
		Load      float64     `json:"load"`
		Cycle     int64       `json:"cycle"`
		TopRoots  []blameRoot `json:"topRoots"`
		Summary   any         `json:"summary"`
	}{ev.Algorithm, ev.Pattern, ev.OfferedLoad, ev.Cycle, roots, f})
}

func (s *Server) handleBlameSVG(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "image/svg+xml")
	snap := s.pub.Snapshot()
	if snap == nil || snap.State == nil || snap.State.Forensics == nil || snap.State.K < 1 || snap.State.N < 1 {
		fmt.Fprint(w, viz.Notice("no forensics summary yet (run with -forensics)"))
		return
	}
	ev := snap.State
	f := ev.Forensics
	title := fmt.Sprintf("%s %s rho=%.2f — blame through cycle %d (every %d)",
		ev.Algorithm, ev.Pattern, ev.OfferedLoad, ev.Cycle, f.SampleEvery)
	fmt.Fprint(w, viz.BlameSVG(topology.New(ev.K, ev.N, ev.Mesh), f.BlameByChannel, f.TopRoots(4), title))
}

func (s *Server) handleHeatmapPage(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!doctype html><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>wormsim heatmap</title>
<body style="font-family:system-ui,sans-serif;background:#fcfcfb;color:#0b0b0b;margin:2rem">
<p style="color:#52514e"><a href="/">observatory</a> — refreshes every 2s; hover a cell for its flit count</p>
<img src="/heatmap.svg" alt="per-node channel traffic heatmap">
</body>
`)
}

func (s *Server) handleHeatmapSVG(w http.ResponseWriter, _ *http.Request) {
	snap := s.pub.Snapshot()
	w.Header().Set("Content-Type", "image/svg+xml")
	// Zero-cycle or otherwise empty snapshots (no tick yet, a degenerate
	// topology, or an engine that published before moving any flit) get a
	// valid placeholder document, never a malformed grid.
	if snap == nil || snap.State == nil || snap.State.K < 1 || snap.State.N < 1 || len(snap.State.ChannelFlits) == 0 {
		fmt.Fprint(w, viz.Notice("waiting for first tick"))
		return
	}
	ev := snap.State
	title := fmt.Sprintf("%s %s rho=%.2f — cycle %d", ev.Algorithm, ev.Pattern, ev.OfferedLoad, ev.Cycle)
	fmt.Fprint(w, viz.HeatmapSVG(topology.New(ev.K, ev.N, ev.Mesh), ev.ChannelFlits, title))
}
