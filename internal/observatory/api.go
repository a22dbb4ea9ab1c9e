package observatory

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"wormsim/internal/core"
	"wormsim/internal/runstore"
	"wormsim/internal/viz"
)

// API is the observatory's experiment surface over a persistent run store:
// submit a configuration and get either the recorded Result instantly (the
// store is content-addressed by core.Config.Hash, and simulations are pure
// functions of the canonical config) or an enqueued run whose status can be
// polled and streamed; list and fetch recorded runs; and compare two
// algorithms point-by-point across everything else held equal
// (core.Config.PairKey alignment).
//
// Admission consults the store exactly once per submission (Lookup, which
// also feeds the hit/miss counters on /metrics); a miss enqueues the run on
// a FIFO core.Scheduler and the completed Result is appended to the store
// before the run is reported done.
type API struct {
	store *runstore.Store
	pub   *Publisher // optional: completed API runs publish ticks to the live feed
	sched *core.Scheduler

	mu      sync.Mutex
	pending map[string]*runState // hash → queued or running submission
}

// runState tracks one in-flight submission and its SSE subscribers.
type runState struct {
	hash  string
	state string // "queued" or "running"
	subs  map[chan []byte]struct{}
}

// Limits on what one client can make the API hold: a submission body is a
// core.Config of a few hundred bytes, and every pending entry pins a queued
// closure and its subscriber map until a worker gets to it.
const (
	maxSubmitBytes = 1 << 20
	maxPending     = 256
)

// NewAPI builds the API over store with its own scheduler of the given
// worker count. pub may be nil; when set, runs submitted through the API
// publish ticks to the shared live feed. Close the API when done.
func NewAPI(store *runstore.Store, pub *Publisher, workers int) *API {
	return &API{
		store:   store,
		pub:     pub,
		sched:   core.NewScheduler(workers),
		pending: make(map[string]*runState),
	}
}

// Close drains and stops the scheduler (in-flight runs complete first).
func (a *API) Close() { a.sched.Close() }

// runStatus is the wire form of a submission's lifecycle. State is one of
// queued, running, failed, done; Cached marks a done answered straight from
// the store; Result rides along on done.
type runStatus struct {
	Hash   string       `json:"hash"`
	State  string       `json:"state"`
	Cached bool         `json:"cached,omitempty"`
	Error  string       `json:"error,omitempty"`
	Result *core.Result `json:"result,omitempty"`
}

// handleRuns serves GET /api/runs (list) and POST /api/runs (submit).
func (a *API) handleRuns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		a.handleList(w)
	case http.MethodPost:
		a.handleSubmit(w, r)
	default:
		http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
	}
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var cfg core.Config
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]string{"error": fmt.Sprintf("decode config: %v", err)})
		return
	}
	canonical := cfg.Canonical()
	hash := canonical.Hash()

	// The single admission Lookup: a hit is the whole point of the store —
	// the recorded Result comes back with zero engine cycles spent.
	if _, ok := a.store.Lookup(hash); ok {
		rec, _ := a.store.Get(hash)
		writeJSON(w, http.StatusOK, runStatus{Hash: hash, State: "done", Cached: true, Result: &rec.Result})
		return
	}

	a.mu.Lock()
	if st, ok := a.pending[hash]; ok {
		// A concurrent submission of the same point rides the existing run.
		state := st.state
		a.mu.Unlock()
		writeJSON(w, http.StatusAccepted, runStatus{Hash: hash, State: state})
		return
	}
	if len(a.pending) >= maxPending {
		a.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": fmt.Sprintf("%d runs pending, retry later", maxPending)})
		return
	}
	st := &runState{hash: hash, state: "queued", subs: make(map[chan []byte]struct{})}
	a.pending[hash] = st
	a.mu.Unlock()

	a.sched.Submit(func() { a.run(hash, canonical) })
	writeJSON(w, http.StatusAccepted, runStatus{Hash: hash, State: "queued"})
}

// run executes one queued submission on a scheduler worker and settles its
// state: the Result is stored before "done" is announced, so a client that
// sees done can immediately GET the record.
func (a *API) run(hash string, cfg core.Config) {
	a.setState(hash, "running")
	if a.pub != nil {
		cfg.OnTick = a.pub.PublishTick
	}
	res, err := core.Run(cfg)
	if err != nil && !res.Deadlocked {
		// Invalid configs surface here; drop the pending entry so a corrected
		// resubmission is not shadowed by the failure.
		a.settle(hash, runStatus{Hash: hash, State: "failed", Error: err.Error()})
		return
	}
	// Deadlock is a legitimate experimental outcome: the Result describes it
	// (Result.Deadlocked) and is recorded like any other point.
	if perr := a.store.Put(runstore.Record{Hash: hash, Config: cfg, Result: res}); perr != nil {
		a.settle(hash, runStatus{Hash: hash, State: "failed", Error: perr.Error()})
		return
	}
	a.settle(hash, runStatus{Hash: hash, State: "done", Result: &res})
}

// setState advances a pending run's state and notifies its subscribers.
func (a *API) setState(hash, state string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.pending[hash]
	if !ok {
		return
	}
	st.state = state
	broadcast(st.subs, sseMessage("status", runStatus{Hash: hash, State: state}))
}

// settle finishes a pending run: subscribers get the final status frame and
// their channels close; the pending entry disappears (done runs live in the
// store now, failed ones may be resubmitted).
func (a *API) settle(hash string, final runStatus) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.pending[hash]
	if !ok {
		return
	}
	delete(a.pending, hash)
	frame := sseMessage("status", final)
	for ch := range st.subs { //lint:allow simdeterminism (fan-out; per-subscriber delivery stays FIFO via the channel)
		select {
		case ch <- frame:
		default: // slow client: it still observes completion via the close
		}
		close(ch)
	}
	st.subs = nil
}

// broadcast fans frame out to subscribers, dropping for any full buffer.
func broadcast(subs map[chan []byte]struct{}, frame []byte) {
	for ch := range subs { //lint:allow simdeterminism (fan-out; per-subscriber delivery stays FIFO via the channel)
		select {
		case ch <- frame:
		default:
		}
	}
}

// runSummary is one row of the GET /api/runs listing.
type runSummary struct {
	Hash        string  `json:"hash"`
	State       string  `json:"state"`
	Seq         uint64  `json:"seq,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Pattern     string  `json:"pattern,omitempty"`
	OfferedLoad float64 `json:"load,omitempty"`
	AvgLatency  float64 `json:"latency,omitempty"`
	Throughput  float64 `json:"throughput,omitempty"`
	Deadlocked  bool    `json:"deadlocked,omitempty"`
}

func (a *API) handleList(w http.ResponseWriter) {
	recs := a.store.List()
	out := make([]runSummary, 0, len(recs))
	for _, rec := range recs {
		out = append(out, runSummary{
			Hash: rec.Hash, State: "done", Seq: rec.Seq,
			Algorithm: rec.Result.Algorithm, Pattern: rec.Result.Pattern,
			OfferedLoad: rec.Result.OfferedLoad, AvgLatency: rec.Result.AvgLatency,
			Throughput: rec.Result.Throughput, Deadlocked: rec.Result.Deadlocked,
		})
	}
	a.mu.Lock()
	hashes := make([]string, 0, len(a.pending))
	for h := range a.pending { //lint:allow simdeterminism (sorted below)
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		out = append(out, runSummary{Hash: h, State: a.pending[h].state})
	}
	a.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Runs []runSummary `json:"runs"`
	}{out})
}

// handleRun serves GET /api/runs/{hash} and GET /api/runs/{hash}/events.
func (a *API) handleRun(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/runs/")
	hash, sub, _ := strings.Cut(rest, "/")
	switch {
	case hash == "":
		http.NotFound(w, r)
	case sub == "events":
		a.handleRunEvents(w, r, hash)
	case sub == "":
		a.handleRunGet(w, hash)
	default:
		http.NotFound(w, r)
	}
}

func (a *API) handleRunGet(w http.ResponseWriter, hash string) {
	if rec, ok := a.store.Get(hash); ok {
		writeJSON(w, http.StatusOK, struct {
			State  string          `json:"state"`
			Record runstore.Record `json:"record"`
		}{"done", rec})
		return
	}
	a.mu.Lock()
	st, ok := a.pending[hash]
	var state string
	if ok {
		state = st.state
	}
	a.mu.Unlock()
	if ok {
		writeJSON(w, http.StatusOK, runStatus{Hash: hash, State: state})
		return
	}
	writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown run " + hash})
}

// handleRunEvents streams one run's status transitions as SSE until it
// settles. A run already in the store yields a single done frame.
func (a *API) handleRunEvents(w http.ResponseWriter, r *http.Request, hash string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	if rec, ok := a.store.Get(hash); ok {
		w.Write(sseMessage("status", runStatus{Hash: hash, State: "done", Cached: true, Result: &rec.Result})) //nolint:errcheck
		fl.Flush()
		return
	}
	a.mu.Lock()
	st, ok := a.pending[hash]
	if !ok {
		a.mu.Unlock()
		w.Write(sseMessage("status", runStatus{Hash: hash, State: "unknown"})) //nolint:errcheck
		fl.Flush()
		return
	}
	ch := make(chan []byte, 16)
	st.subs[ch] = struct{}{}
	state := st.state
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		if st.subs != nil {
			delete(st.subs, ch)
		}
		a.mu.Unlock()
	}()

	w.Write(sseMessage("status", runStatus{Hash: hash, State: state})) //nolint:errcheck
	fl.Flush()
	for {
		select {
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// compareSide is one algorithm's record at a comparison point.
type compareSide struct {
	Hash       string  `json:"hash"`
	AvgLatency float64 `json:"latency"`
	Throughput float64 `json:"throughput"`
	Deadlocked bool    `json:"deadlocked,omitempty"`
}

// comparePoint pairs the two algorithms' records whose canonical configs
// differ only in the algorithm (same PairKey).
type comparePoint struct {
	PairKey     string      `json:"pairKey"`
	OfferedLoad float64     `json:"load"`
	A           compareSide `json:"a"`
	B           compareSide `json:"b"`
}

// comparison is the GET /api/compare response body.
type comparison struct {
	A      string         `json:"a"`
	B      string         `json:"b"`
	Points []comparePoint `json:"points"`
	// AOnly and BOnly count stored runs of each algorithm with no partner at
	// the same comparison point — visible so a sparse comparison is not
	// mistaken for a complete one.
	AOnly int `json:"aOnly"`
	BOnly int `json:"bOnly"`
}

// compare aligns the store's records of algorithms a and b by PairKey and
// orders the paired points by offered load (PairKey breaking ties), a
// deterministic result for both the JSON and the SVG surface.
func (a *API) compare(algA, algB string) comparison {
	cmp := comparison{A: algA, B: algB}
	byKey := make(map[string]map[string]runstore.Record)
	for _, rec := range a.store.List() {
		alg := rec.Result.Algorithm
		if alg != algA && alg != algB {
			continue
		}
		key := rec.Config.PairKey()
		if byKey[key] == nil {
			byKey[key] = make(map[string]runstore.Record)
		}
		if _, dup := byKey[key][alg]; !dup { // first-stored record wins, like the store index
			byKey[key][alg] = rec
		}
	}
	for key, sides := range byKey { //lint:allow simdeterminism (sorted below)
		ra, okA := sides[algA]
		rb, okB := sides[algB]
		switch {
		case okA && okB:
			cmp.Points = append(cmp.Points, comparePoint{
				PairKey:     key,
				OfferedLoad: ra.Config.OfferedLoad,
				A:           compareSide{ra.Hash, ra.Result.AvgLatency, ra.Result.Throughput, ra.Result.Deadlocked},
				B:           compareSide{rb.Hash, rb.Result.AvgLatency, rb.Result.Throughput, rb.Result.Deadlocked},
			})
		case okA:
			cmp.AOnly++
		default:
			cmp.BOnly++
		}
	}
	sort.Slice(cmp.Points, func(i, j int) bool {
		if cmp.Points[i].OfferedLoad != cmp.Points[j].OfferedLoad {
			return cmp.Points[i].OfferedLoad < cmp.Points[j].OfferedLoad
		}
		return cmp.Points[i].PairKey < cmp.Points[j].PairKey
	})
	return cmp
}

func (a *API) handleCompare(w http.ResponseWriter, r *http.Request) {
	algA, algB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if algA == "" || algB == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "compare needs ?a=ALG&b=ALG"})
		return
	}
	writeJSON(w, http.StatusOK, a.compare(algA, algB))
}

func (a *API) handleCompareSVG(w http.ResponseWriter, r *http.Request) {
	algA, algB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	w.Header().Set("Content-Type", "image/svg+xml")
	if algA == "" || algB == "" {
		http.Error(w, "compare needs ?a=ALG&b=ALG", http.StatusBadRequest)
		return
	}
	cmp := a.compare(algA, algB)
	title := fmt.Sprintf("%s vs %s — latency vs offered load (%d aligned points)", algA, algB, len(cmp.Points))
	fmt.Fprint(w, viz.CompareSVG(title, compareSeries(cmp))) //nolint:errcheck
}

// compareSeries converts an aligned comparison into the two overlay curves
// /compare.svg draws.
func compareSeries(cmp comparison) []viz.CurveSeries {
	sa := viz.CurveSeries{Name: cmp.A}
	sb := viz.CurveSeries{Name: cmp.B}
	for _, p := range cmp.Points {
		sa.Loads = append(sa.Loads, p.OfferedLoad)
		sa.Latency = append(sa.Latency, p.A.AvgLatency)
		sa.Throughput = append(sa.Throughput, p.A.Throughput)
		sa.Deadlocked = append(sa.Deadlocked, p.A.Deadlocked)
		sb.Loads = append(sb.Loads, p.OfferedLoad)
		sb.Latency = append(sb.Latency, p.B.AvgLatency)
		sb.Throughput = append(sb.Throughput, p.B.Throughput)
		sb.Deadlocked = append(sb.Deadlocked, p.B.Deadlocked)
	}
	return []viz.CurveSeries{sa, sb}
}

// writeJSON writes v as indented JSON with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck
}
