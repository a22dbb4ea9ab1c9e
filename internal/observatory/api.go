package observatory

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"wormsim/internal/runstore"
	"wormsim/internal/viz"
)

// The run-store endpoints are a read-only surface over the records
// core.RunCached writes (wormsim -store): list and fetch
// recorded runs, and compare two algorithms point-by-point across
// everything else held equal (core.Config.PairKey alignment). Nothing here
// simulates or writes; a run is recorded by running it with a store.
//
// Admission is core's: a stored record of a config core.Config.Check
// refuses is never served. Fetching it answers 400 with core's error, as
// core.RunCached refuses the config, and listings and comparisons leave
// it out.

// handleRuns serves GET /api/runs, the list of recorded runs.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	recs := s.store.List()
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
	writeJSON(w, http.StatusOK, struct {
		Runs []runSummary `json:"runs"`
	}{out})
}

// runSummary is one row of the GET /api/runs listing.
type runSummary struct {
	Hash        string  `json:"hash"`
	State       string  `json:"state"` // always "done": a listed run is a recorded one
	Seq         uint64  `json:"seq,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Pattern     string  `json:"pattern,omitempty"`
	OfferedLoad float64 `json:"load,omitempty"`
	AvgLatency  float64 `json:"latency,omitempty"`
	Throughput  float64 `json:"throughput,omitempty"`
	Deadlocked  bool    `json:"deadlocked,omitempty"`
}

// handleRun serves GET /api/runs/{hash}, one recorded run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/api/runs/")
	if hash == "" || strings.Contains(hash, "/") {
		http.NotFound(w, r)
		return
	}
	rec, ok := s.store.Get(hash)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown run " + hash})
		return
	}
	if err := rec.Config.Check(); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		State  string          `json:"state"`
		Record runstore.Record `json:"record"`
	}{"done", rec})
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
func (s *Server) compare(algA, algB string) comparison {
	cmp := comparison{A: algA, B: algB}
	byKey := make(map[string]map[string]runstore.Record)
	for _, rec := range s.store.List() {
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

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	algA, algB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if algA == "" || algB == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "compare needs ?a=ALG&b=ALG"})
		return
	}
	writeJSON(w, http.StatusOK, s.compare(algA, algB))
}

func (s *Server) handleCompareSVG(w http.ResponseWriter, r *http.Request) {
	algA, algB := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	w.Header().Set("Content-Type", "image/svg+xml")
	if algA == "" || algB == "" {
		http.Error(w, "compare needs ?a=ALG&b=ALG", http.StatusBadRequest)
		return
	}
	cmp := s.compare(algA, algB)
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
