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
// Admission is core's: a config core.Config.Check refuses is answered
// 400 before the store is consulted, exactly as core.RunCached refuses it,
// and a stored record of such a config is never served: fetching it or its
// events answers the same 400, and listings and comparisons leave it out.
// Otherwise the store is consulted once per submission (Lookup, which also
// feeds the hit/miss counters on /metrics); a miss enqueues the run on the
// API's own FIFO and the completed Result is written with Store, the path
// RunCached writes by, before the run is reported done.
type API struct {
	store *runstore.Store
	pub   *Publisher // optional: completed API runs publish ticks to the live feed
	// jobs is the FIFO of accepted runs. It buffers maxPending, the most runs
	// that can be pending, so a send never blocks.
	jobs    chan func()
	workers sync.WaitGroup

	mu      sync.Mutex
	pending map[string]*runState // hash → queued or running submission
}

// runState tracks one in-flight submission and its SSE subscribers.
type runState struct {
	state string // "queued" or "running"
	subs  hub
}

// Limits on what one client can make the API hold: a submission body is a
// core.Config of a few hundred bytes, and every pending entry pins a queued
// closure and its subscriber map until a worker gets to it.
const (
	maxSubmitBytes = 1 << 20
	maxPending     = 256
)

// NewAPI builds the API over store and starts workers (minimum 1) goroutines
// that run its submissions in order. pub may be nil; when set, API runs
// publish ticks to the shared live feed. Close the API when done.
func NewAPI(store *runstore.Store, pub *Publisher, workers int) *API {
	a := &API{
		store:   store,
		pub:     pub,
		jobs:    make(chan func(), maxPending),
		pending: make(map[string]*runState),
	}
	for range max(workers, 1) {
		a.workers.Add(1)
		go func() {
			defer a.workers.Done()
			for job := range a.jobs {
				job()
			}
		}()
	}
	return a
}

// Close waits for every queued and running run; a later submission panics.
func (a *API) Close() {
	close(a.jobs)
	a.workers.Wait()
}

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
	if err := cfg.Check(); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	canonical := cfg.Canonical()
	hash := canonical.Hash()

	// The single admission Lookup: a hit is the whole point of the store —
	// the recorded Result comes back with zero engine cycles spent.
	if res, ok := a.store.Lookup(hash); ok {
		writeJSON(w, http.StatusOK, runStatus{Hash: hash, State: "done", Cached: true, Result: &res})
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
	st := &runState{state: "queued"}
	a.pending[hash] = st
	a.mu.Unlock()

	a.jobs <- func() { a.run(hash, canonical) }
	writeJSON(w, http.StatusAccepted, runStatus{Hash: hash, State: "queued"})
}

// run executes one queued submission on an API worker and settles its
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
	if perr := a.store.Store(hash, cfg, res); perr != nil {
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
	st.subs.send(sseMessage("status", runStatus{Hash: hash, State: state}))
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
	st.subs.send(sseMessage("status", final)) // a slow client still observes completion via the close
	st.subs.closeAll()
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
		if rec.Config.Check() != nil {
			continue
		}
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

// refuseStored answers 400 with core's error, and reports true, when rec is
// a stored record of a config the admission rule refuses.
func refuseStored(w http.ResponseWriter, rec runstore.Record) bool {
	err := rec.Config.Check()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
	return err != nil
}

func (a *API) handleRunGet(w http.ResponseWriter, hash string) {
	if rec, ok := a.store.Get(hash); ok {
		if refuseStored(w, rec) {
			return
		}
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
	if rec, ok := a.store.Get(hash); ok {
		if refuseStored(w, rec) {
			return
		}
		serveSSE(w, r, sseMessage("status", runStatus{Hash: hash, State: "done", Cached: true, Result: &rec.Result}), nil)
		return
	}
	a.mu.Lock()
	st, ok := a.pending[hash]
	if !ok {
		a.mu.Unlock()
		serveSSE(w, r, sseMessage("status", runStatus{Hash: hash, State: "unknown"}), nil)
		return
	}
	ch := st.subs.add(16)
	open := sseMessage("status", runStatus{Hash: hash, State: st.state})
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		st.subs.remove(ch)
		a.mu.Unlock()
	}()
	serveSSE(w, r, open, ch)
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
		if rec.Config.Check() != nil {
			continue
		}
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
				OfferedLoad: ra.Result.OfferedLoad,
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
