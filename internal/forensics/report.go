package forensics

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"wormsim/internal/stats"
)

// ComponentStats summarizes one latency-anatomy component of a routing
// class. Share is the component's fraction of the class's total latency
// mass (the four component shares sum to <= 1; arbitration residue inside
// the blocked-behind clamp accounts for the rest). Buckets is the
// cumulative histogram in Prometheus form, for /metrics exposition.
type ComponentStats struct {
	Mean    float64
	P50     float64
	P95     float64
	Max     float64
	Share   float64
	Buckets []stats.CumBucket `json:",omitempty"`
}

// componentStats flattens one histogram against the class's total latency
// mass.
func componentStats(h *stats.Histogram, totalSum float64) ComponentStats {
	c := ComponentStats{Mean: h.Mean(), Max: h.Max(), Buckets: h.Cumulative()}
	q := h.Quantiles(0.5, 0.95)
	c.P50, c.P95 = q[0], q[1]
	if totalSum > 0 {
		c.Share = h.Mean() * float64(h.Count()) / totalSum
	}
	return c
}

// ClassAnatomy is the latency decomposition of one routing class: where the
// delivered worms of that class spent their cycles. Inject is source-queue
// wait (generation to first-hop virtual-channel allocation), Alloc is
// header allocation stalls at intermediate nodes, Behind is time blocked
// behind congestion-tree body flits and channel arbitration, Drain is the
// unloaded pipeline latency (eq. (2)).
type ClassAnatomy struct {
	Class     int
	Delivered int64
	MeanHops  float64
	MeanTotal float64
	Inject    ComponentStats
	Alloc     ComponentStats
	Behind    ComponentStats
	Drain     ComponentStats
}

// Root is one congestion-tree root channel ranked by blame mass.
type Root struct {
	// Ch is the dense physical channel slot.
	Ch int
	// Blame is the estimated blocked worm-cycles attributed to this root.
	Blame int64
	// Roots counts tree-root occurrences across samples.
	Roots int64
	// Share is Blame over all attributed blocked cycles.
	Share float64
}

// Summary is the JSON-friendly aggregation of a run's congestion forensics,
// attached to core.Result. All counts weighted by SampleEvery estimate
// whole-run totals from the sampled cycles (exact when SampleEvery is 1).
type Summary struct {
	// SampleEvery is the sampling period used; Cycles the cycles observed;
	// Samples the wait-for graph reconstructions performed.
	SampleEvery int64
	Cycles      int64
	Samples     int64
	// BlockedObserved estimates total head-blocked worm-cycles;
	// Attributed of those were traced to a root channel (Unattributed
	// covers worms with no admissible busy candidate — structurally
	// impossible under minimal routing, kept for honesty).
	BlockedObserved int64
	Attributed      int64
	Unattributed    int64
	// Trees counts congestion-tree observations; WaitCycles sampled
	// wait-for cycle occurrences (near-deadlock events).
	Trees        int64
	WaitCycles   int64
	MeanTreeSize float64
	MaxTreeSize  int64
	MaxTreeDepth int64
	// MeanWaitWidth is the mean number of admissible-but-busy candidate
	// channels per blocked worm (1 for deterministic routing; higher means
	// adaptivity was exhausted, not unused).
	MeanWaitWidth float64
	// BlameByChannel[ch] is the blame mass of channel slot ch;
	// RootsByChannel[ch] its tree-root occurrence count.
	BlameByChannel stats.Counts
	RootsByChannel stats.Counts
	// LastWaitCycle is the most recent wait-for cycle witness, if any.
	LastWaitCycle []CycleEdge `json:",omitempty"`
	// Anatomy is the per-routing-class latency decomposition.
	Anatomy []ClassAnatomy
}

// Summary snapshots the analyzer's accumulated state. Everything in the
// result is a copy owned by the caller.
func (a *Analyzer) Summary() *Summary {
	s := &Summary{
		SampleEvery:     a.opts.SampleEvery,
		Cycles:          a.cycles,
		Samples:         a.samples,
		BlockedObserved: a.observed,
		Attributed:      a.attributed,
		Unattributed:    a.unattributed,
		Trees:           a.trees,
		WaitCycles:      a.waitCycles,
		MaxTreeSize:     a.maxTreeSize,
		MaxTreeDepth:    a.maxTreeDepth,
		BlameByChannel:  append([]int64(nil), a.blame...),
		RootsByChannel:  append([]int64(nil), a.roots...),
	}
	if a.trees > 0 {
		s.MeanTreeSize = float64(a.treeSizeSum) / float64(a.trees)
	}
	if a.attributed > 0 {
		s.MeanWaitWidth = float64(a.widthSum) / float64(a.attributed)
	}
	if len(a.lastWaitCycle) > 0 {
		s.LastWaitCycle = append([]CycleEdge(nil), a.lastWaitCycle...)
	}
	for class := range a.anat {
		ca := &a.anat[class]
		if ca.delivered == 0 {
			s.Anatomy = append(s.Anatomy, ClassAnatomy{Class: class})
			continue
		}
		s.Anatomy = append(s.Anatomy, ClassAnatomy{
			Class:     class,
			Delivered: ca.delivered,
			MeanHops:  float64(ca.hops) / float64(ca.delivered),
			MeanTotal: ca.totalSum / float64(ca.delivered),
			Inject:    componentStats(&ca.inject, ca.totalSum),
			Alloc:     componentStats(&ca.alloc, ca.totalSum),
			Behind:    componentStats(&ca.behind, ca.totalSum),
			Drain:     componentStats(&ca.drain, ca.totalSum),
		})
	}
	return s
}

// AttributedFraction is the share of observed blocked cycles traced to a
// root channel (1 when nothing was observed blocked).
func (s *Summary) AttributedFraction() float64 {
	if s.BlockedObserved == 0 {
		return 1
	}
	return float64(s.Attributed) / float64(s.BlockedObserved)
}

// TopRoots returns the k channels with the largest blame mass, heaviest
// first, ties broken by channel index for determinism. Channels with zero
// blame are omitted.
func (s *Summary) TopRoots(k int) []Root {
	idx := make([]int, 0, len(s.BlameByChannel))
	for ch, b := range s.BlameByChannel {
		if b > 0 {
			idx = append(idx, ch)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if s.BlameByChannel[ia] != s.BlameByChannel[ib] {
			return s.BlameByChannel[ia] > s.BlameByChannel[ib]
		}
		return ia < ib
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Root, 0, k)
	for _, ch := range idx[:k] {
		r := Root{Ch: ch, Blame: s.BlameByChannel[ch], Roots: s.RootsByChannel[ch]}
		if s.Attributed > 0 {
			r.Share = float64(r.Blame) / float64(s.Attributed)
		}
		out = append(out, r)
	}
	return out
}

// Render writes a human-readable forensics report, the CLI's -forensics
// output: attribution totals, the top root channels, and the per-class
// latency anatomy ("where did my 400-cycle latency go").
func (s *Summary) Render(w io.Writer) {
	fmt.Fprintf(w, "congestion forensics (sampled every %d cycles, %d samples over %d cycles)\n",
		s.SampleEvery, s.Samples, s.Cycles)
	fmt.Fprintf(w, "  head-blocked worm-cycles observed %d, attributed %d (%.1f%%)\n",
		s.BlockedObserved, s.Attributed, 100*s.AttributedFraction())
	fmt.Fprintf(w, "  congestion trees %d (mean size %.1f, max %d, max depth %d), wait-for cycles %d, mean wait width %.2f\n",
		s.Trees, s.MeanTreeSize, s.MaxTreeSize, s.MaxTreeDepth, s.WaitCycles, s.MeanWaitWidth)
	if roots := s.TopRoots(8); len(roots) > 0 {
		fmt.Fprintf(w, "  top blame roots:\n")
		for _, r := range roots {
			fmt.Fprintf(w, "    ch %-5d blame %-10d (%.1f%% of attributed, root of %d trees)\n",
				r.Ch, r.Blame, 100*r.Share, r.Roots)
		}
	}
	if len(s.LastWaitCycle) > 0 {
		fmt.Fprintf(w, "  last wait-for cycle witness:")
		for _, e := range s.LastWaitCycle {
			fmt.Fprintf(w, " worm %d -(ch %d vc %d)->", e.Msg, e.Ch, e.VC)
		}
		fmt.Fprintf(w, " worm %d\n", s.LastWaitCycle[0].Msg)
	}
	for _, ca := range s.Anatomy {
		if ca.Delivered == 0 {
			continue
		}
		fmt.Fprintf(w, "  class %d latency anatomy (%d delivered, %.1f mean hops, %.1f mean cycles):\n",
			ca.Class, ca.Delivered, ca.MeanHops, ca.MeanTotal)
		renderComponent(w, "inject wait", ca.Inject)
		renderComponent(w, "alloc stall", ca.Alloc)
		renderComponent(w, "blocked behind", ca.Behind)
		renderComponent(w, "drain (ideal)", ca.Drain)
	}
}

// renderComponent writes one anatomy component line.
func renderComponent(w io.Writer, name string, c ComponentStats) {
	fmt.Fprintf(w, "    %-14s mean %8.1f  p50 %8.1f  p95 %8.1f  max %8.0f  (%.1f%% of latency)\n",
		name, c.Mean, c.P50, c.P95, c.Max, 100*c.Share)
}

// RenderString is Render into a string.
func (s *Summary) RenderString() string {
	var b strings.Builder
	s.Render(&b)
	return b.String()
}
