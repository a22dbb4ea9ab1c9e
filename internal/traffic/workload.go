package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

// Arrival is a message generation event: a message from Src to Dst appeared
// this cycle.
type Arrival struct {
	Src int
	Dst int
}

// Workload produces arrivals cycle by cycle.
type Workload interface {
	// Name identifies the workload for reports.
	Name() string
	// Arrivals appends this cycle's generation events to dst. Cycles must be
	// queried in nondecreasing order.
	Arrivals(cycle int64, dst []Arrival) []Arrival
	// Reseed switches to fresh random streams. The paper's methodology
	// starts new streams for destination selection and interarrival times
	// after every sampling period.
	Reseed(seed uint64)
	// MeanDistance returns the exact mean minimal distance of generated
	// messages (8.031 for uniform traffic on a 16-ary 2-cube).
	MeanDistance() float64
	// HopClassWeights returns the probability that a generated message
	// needs exactly m hops, indexed by m from 0 to the network diameter
	// (weight 0 at index 0). These are the stratum weights of the paper's
	// convergence criterion.
	HopClassWeights() []float64
}

// Bernoulli is the paper's arrival process: each node independently
// generates a message with probability Rate every cycle, which makes the
// interarrival times geometrically distributed.
type Bernoulli struct {
	g       *topology.Grid
	pattern Pattern
	rate    float64
	// thr is rate as a precomputed Uint53 cutoff: per-node trials compare a
	// raw draw against it instead of converting to float every cycle. The
	// outcomes are exactly those of Bernoulli(rate) on the same stream (see
	// rng.BernoulliThreshold).
	thr uint64
	// Separate sequences for interarrival times and destination selection,
	// as in the paper.
	arr *rng.Stream
	dst *rng.Stream

	meanDist  float64
	hopWeight []float64
}

// NewBernoulli returns a Bernoulli workload over pattern with per-node
// per-cycle generation probability rate, seeded with seed.
func NewBernoulli(g *topology.Grid, pattern Pattern, rate float64, seed uint64) *Bernoulli {
	checkRate(rate)
	b := &Bernoulli{g: g, pattern: pattern, rate: rate, thr: rng.BernoulliThreshold(rate)}
	b.Reseed(seed)
	b.meanDist, b.hopWeight = distanceStats(g, pattern)
	return b
}

func checkRate(rate float64) {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("traffic: rate %g out of [0,1]", rate))
	}
}

// Name combines the pattern name and the rate.
func (b *Bernoulli) Name() string {
	return fmt.Sprintf("%s@%.4g/node/cycle", b.pattern.Name(), b.rate)
}

// Rate returns the per-node generation probability.
func (b *Bernoulli) Rate() float64 { return b.rate }

// Arrivals draws one Bernoulli trial per node. The trial loop mirrors
// rng.Stream.Bernoulli exactly — rate endpoints consume no draws, interior
// rates one Uint64 per node — but compares raw 53-bit draws against the
// precomputed cutoff, which is the engine's single hottest loop.
func (b *Bernoulli) Arrivals(_ int64, dst []Arrival) []Arrival {
	if b.rate <= 0 {
		return dst
	}
	nodes := b.g.Nodes()
	arr, thr := b.arr, b.thr
	for src := 0; src < nodes; src++ {
		if b.rate < 1 && !arr.Uint53Below(thr) {
			continue
		}
		d := b.pattern.Dest(src, b.dst)
		if d >= 0 {
			dst = append(dst, Arrival{Src: src, Dst: d})
		}
	}
	return dst
}

// Reseed replaces both random streams.
func (b *Bernoulli) Reseed(seed uint64) {
	b.arr = rng.NewStream(seed, 0x1a77)
	b.dst = rng.NewStream(seed, 0xde57)
}

// WithRate returns a workload identical to one built by NewBernoulli with
// the same grid and pattern but generation probability rate, seeded with
// seed. It shares b's precomputed distance statistics — a function of grid
// and pattern alone, and, at O(nodes^2) pairs, the dominant construction
// cost — so a caller that probes the mean distance at rate zero to derive
// the real rate pays for one enumeration.
func (b *Bernoulli) WithRate(rate float64, seed uint64) *Bernoulli {
	checkRate(rate)
	nb := *b
	nb.rate, nb.thr = rate, rng.BernoulliThreshold(rate)
	nb.Reseed(seed)
	return &nb
}

// MeanDistance returns the pattern's exact mean distance.
func (b *Bernoulli) MeanDistance() float64 { return b.meanDist }

// HopClassWeights returns the pattern's hop-class distribution.
func (b *Bernoulli) HopClassWeights() []float64 {
	w := make([]float64, len(b.hopWeight))
	copy(w, b.hopWeight)
	return w
}

// distanceStats enumerates the destination distribution exactly.
func distanceStats(g *topology.Grid, p Pattern) (mean float64, weights []float64) {
	weights = make([]float64, g.Diameter()+1)
	total := 0.0
	sum := 0.0
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			pr := p.DestProb(src, dst)
			if pr == 0 {
				continue
			}
			d := g.Distance(src, dst)
			weights[d] += pr
			sum += pr * float64(d)
			total += pr
		}
	}
	if total == 0 {
		return 0, weights
	}
	for i := range weights {
		weights[i] /= total
	}
	return sum / total, weights
}

// GenerationRate returns the probability that a generation attempt at a
// uniformly chosen node actually produces a message (1 for the paper's
// three patterns; below 1 for permutations with fixed points, whose idle
// nodes dilute offered load).
func GenerationRate(g *topology.Grid, p Pattern) float64 {
	total := 0.0
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			total += p.DestProb(src, dst)
		}
	}
	return total / float64(g.Nodes())
}

// Trace replays a fixed list of arrivals — the paper's planned trace-driven
// evaluation (sec. 4). Events need not be pre-sorted.
type Trace struct {
	g      *topology.Grid
	name   string
	events []traceEvent
	next   int
}

type traceEvent struct {
	Cycle int64
	Arrival
}

// NewTrace returns a trace workload from explicit events.
func NewTrace(g *topology.Grid, name string, cycles []int64, arrivals []Arrival) *Trace {
	if len(cycles) != len(arrivals) {
		panic("traffic: trace cycles and arrivals length mismatch")
	}
	t := &Trace{g: g, name: name, events: make([]traceEvent, len(cycles))}
	for i := range cycles {
		if arrivals[i].Src < 0 || arrivals[i].Src >= g.Nodes() || arrivals[i].Dst < 0 || arrivals[i].Dst >= g.Nodes() {
			panic(fmt.Sprintf("traffic: trace event %d out of range: %+v", i, arrivals[i]))
		}
		if arrivals[i].Src == arrivals[i].Dst {
			panic(fmt.Sprintf("traffic: trace event %d sends to itself: %+v", i, arrivals[i]))
		}
		t.events[i] = traceEvent{Cycle: cycles[i], Arrival: arrivals[i]}
	}
	sort.SliceStable(t.events, func(i, j int) bool { return t.events[i].Cycle < t.events[j].Cycle })
	return t
}

// ReadTrace parses a whitespace-separated "cycle src dst" trace, one event
// per line; blank lines and lines starting with '#' are ignored.
func ReadTrace(g *topology.Grid, name string, r io.Reader) (*Trace, error) {
	var cycles []int64
	var arrivals []Arrival
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var cycle int64
		var src, dst int
		if _, err := fmt.Sscan(text, &cycle, &src, &dst); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: %w", line, err)
		}
		cycles = append(cycles, cycle)
		arrivals = append(arrivals, Arrival{Src: src, Dst: dst})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewTrace(g, name, cycles, arrivals), nil
}

// Name returns the trace's name.
func (t *Trace) Name() string { return t.name }

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.events) }

// LastCycle returns the cycle of the final event, or -1 for an empty trace.
func (t *Trace) LastCycle() int64 {
	if len(t.events) == 0 {
		return -1
	}
	return t.events[len(t.events)-1].Cycle
}

// Arrivals returns the events scheduled for the cycle.
func (t *Trace) Arrivals(cycle int64, dst []Arrival) []Arrival {
	for t.next < len(t.events) && t.events[t.next].Cycle <= cycle {
		dst = append(dst, t.events[t.next].Arrival)
		t.next++
	}
	return dst
}

// Reseed rewinds the trace (traces are deterministic; reseeding restarts
// replay so repeated samples see the same workload).
func (t *Trace) Reseed(uint64) { t.next = 0 }

// MeanDistance returns the mean distance over the trace's events.
func (t *Trace) MeanDistance() float64 {
	if len(t.events) == 0 {
		return 0
	}
	sum := 0
	for _, e := range t.events {
		sum += t.g.Distance(e.Src, e.Dst)
	}
	return float64(sum) / float64(len(t.events))
}

// HopClassWeights returns the empirical hop-class distribution of the trace.
func (t *Trace) HopClassWeights() []float64 {
	w := make([]float64, t.g.Diameter()+1)
	if len(t.events) == 0 {
		return w
	}
	for _, e := range t.events {
		w[t.g.Distance(e.Src, e.Dst)]++
	}
	for i := range w {
		w[i] /= float64(len(t.events))
	}
	return w
}
