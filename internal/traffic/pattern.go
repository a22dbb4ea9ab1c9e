// Package traffic generates the workloads of the paper's evaluation:
// uniform, hotspot and local traffic patterns with geometrically distributed
// message interarrival times, plus trace-driven workloads and the
// permutation patterns (matrix transpose, bit reversal, complement, tornado,
// perfect shuffle) — extensions the paper mentions or the standard
// evaluation suite adds (sec. 3.4 cites Glass & Ni's transpose results;
// sec. 4 plans trace-driven evaluation).
//
// A Pattern chooses destinations; a Workload combines a pattern with an
// arrival process and feeds the simulator. Patterns also expose their exact
// destination distribution so mean distance and the hop-class stratum
// weights used by the convergence machinery can be computed in closed form.
package traffic

import (
	"fmt"
	"strconv"
	"strings"

	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

// Pattern selects a destination for a message generated at a source node.
type Pattern interface {
	// Name returns a short identifier, e.g. "uniform" or "hotspot(255,4%)".
	Name() string
	// Dest returns the destination for a message from src, or -1 if this
	// source generates no message under the pattern (e.g. a diagonal node
	// under matrix transpose).
	Dest(src int, r *rng.Stream) int
	// DestProb returns P(destination = dst | message generated at src). The
	// probabilities over dst sum to at most 1; a deficit means the source
	// generates fewer messages (only transpose-like permutations do this).
	DestProb(src, dst int) float64
}

// Uniform sends each message to a destination chosen uniformly among all
// other nodes — the paper's "random" pattern, representative of hashed data
// distribution in massively parallel computations.
type Uniform struct{ g *topology.Grid }

// NewUniform returns the uniform pattern on g.
func NewUniform(g *topology.Grid) *Uniform { return &Uniform{g: g} }

// Name returns "uniform".
func (u *Uniform) Name() string { return "uniform" }

// Dest draws uniformly among the other nodes.
func (u *Uniform) Dest(src int, r *rng.Stream) int { return otherNode(u.g, src, r) }

// otherNode draws uniformly among g's nodes other than src.
func otherNode(g *topology.Grid, src int, r *rng.Stream) int {
	d := r.Intn(g.Nodes() - 1)
	if d >= src {
		d++
	}
	return d
}

// DestProb returns 1/(N-1) for dst != src.
func (u *Uniform) DestProb(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return 1 / float64(u.g.Nodes()-1)
}

// Hotspot layers single-node hotspot traffic over the uniform pattern: with
// probability Frac a new message is directed to the hot node, otherwise
// uniformly to any other node. With Frac = 0.04 on a 16-ary 2-cube this
// reproduces the paper's numbers: the hot node receives each message with
// probability 0.0438 and every other node with 0.0038, i.e. about 11.5x the
// average traffic. Messages the hot node would address to itself fall back
// to the uniform component.
type Hotspot struct {
	g    *topology.Grid
	Hot  int
	Frac float64
}

// NewHotspot returns the hotspot pattern with the given hot node and
// hotspot fraction; it panics on a node off the grid or a fraction outside
// [0,1).
func NewHotspot(g *topology.Grid, hot int, frac float64) *Hotspot {
	mustValid(hotspotErr(g, hot, frac))
	return &Hotspot{g: g, Hot: hot, Frac: frac}
}

// hotspotErr reports why NewHotspot would reject its arguments, if it would.
func hotspotErr(g *topology.Grid, hot int, frac float64) error {
	if hot < 0 || hot >= g.Nodes() {
		return fmt.Errorf("traffic: hotspot node %d out of range", hot)
	}
	if !(frac >= 0 && frac < 1) {
		return fmt.Errorf("traffic: hotspot fraction %g out of range [0,1)", frac)
	}
	return nil
}

// mustValid panics with err, the verdict of a constructor's argument check,
// when there is one: the constructors panic on what Parse reports as an
// error.
func mustValid(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// Name returns e.g. "hotspot(255,4.0%)".
func (h *Hotspot) Name() string {
	return fmt.Sprintf("hotspot(%d,%.1f%%)", h.Hot, h.Frac*100)
}

// Dest draws the hot node with probability Frac, else uniform-other.
func (h *Hotspot) Dest(src int, r *rng.Stream) int {
	if r.Bernoulli(h.Frac) && h.Hot != src {
		return h.Hot
	}
	return otherNode(h.g, src, r)
}

// DestProb combines the hotspot and uniform components.
func (h *Hotspot) DestProb(src, dst int) float64 {
	if src == dst {
		return 0
	}
	n1 := float64(h.g.Nodes() - 1)
	if src == h.Hot {
		return 1 / n1
	}
	p := (1 - h.Frac) / n1
	if dst == h.Hot {
		p += h.Frac
	}
	return p
}

// Local sends each message uniformly into the (2R+1)^n box centred on the
// source (excluding the source itself). With R = 3 on a 16-ary 2-cube this
// is the paper's 7x7 local pattern with locality factor 0.4 and mean
// distance 3.5.
type Local struct {
	g      *topology.Grid
	Radius int
}

// NewLocal returns the local pattern with the given box radius. On a torus
// the radius must be less than k/2 so the box is unambiguous.
func NewLocal(g *topology.Grid, radius int) *Local {
	mustValid(localErr(g, radius))
	return &Local{g: g, Radius: radius}
}

// localErr reports why NewLocal would reject its arguments, if it would.
func localErr(g *topology.Grid, radius int) error {
	if radius < 1 {
		return fmt.Errorf("traffic: local radius must be >= 1")
	}
	if g.Wrap() && 2*radius >= g.K() {
		return fmt.Errorf("traffic: local radius %d too large for radix %d torus", radius, g.K())
	}
	return nil
}

// Name returns e.g. "local(r=3)".
func (l *Local) Name() string { return fmt.Sprintf("local(r=%d)", l.Radius) }

// Dest draws a uniform nonzero offset vector within the box, rejecting
// offsets that fall outside a mesh boundary. It builds the node id by
// strides, least significant dimension first, so a draw allocates nothing.
func (l *Local) Dest(src int, r *rng.Stream) int {
	g := l.g
draw:
	for {
		id, stride, zero := 0, 1, true
		for dim := 0; dim < g.N(); dim++ {
			off := r.Intn(2*l.Radius+1) - l.Radius
			if off != 0 {
				zero = false
			}
			c := g.Coord(src, dim) + off
			if g.Wrap() {
				c = ((c % g.K()) + g.K()) % g.K()
			} else if c < 0 || c >= g.K() {
				continue draw
			}
			id += c * stride
			stride *= g.K()
		}
		if !zero {
			return id
		}
	}
}

// inBox reports whether dst lies in the box around src, i.e. every
// per-dimension minimal offset has magnitude <= R.
func (l *Local) inBox(src, dst int) bool {
	for dim := 0; dim < l.g.N(); dim++ {
		off := l.g.Offset(src, dst, dim)
		if off < -l.Radius || off > l.Radius {
			return false
		}
	}
	return true
}

// DestProb returns 1/(box size - 1) for box members, the box clipped at a
// mesh boundary.
func (l *Local) DestProb(src, dst int) float64 {
	if src == dst || !l.inBox(src, dst) {
		return 0
	}
	size := 1
	for dim := 0; dim < l.g.N(); dim++ {
		lo, hi := l.g.Coord(src, dim)-l.Radius, l.g.Coord(src, dim)+l.Radius
		if !l.g.Wrap() { // a mesh clips the box at its boundary
			lo, hi = max(0, lo), min(l.g.K()-1, hi)
		}
		size *= hi - lo + 1
	}
	return 1 / float64(size-1)
}

// Parse builds a pattern on g from a CLI-style spec:
//
//	uniform | hotspot[:frac[:node]] | local[:radius] | transpose |
//	bitrev | complement | tornado | shuffle
//
// Defaults follow the paper: hotspot fraction 0.04 at the corner node,
// local radius 3. A spec the pattern's constructor would panic on — a
// hotspot node off g, a local box that wraps — is an error here.
func Parse(g *topology.Grid, spec string) (Pattern, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "uniform":
		return NewUniform(g), nil
	case "hotspot":
		frac := 0.04
		hot := g.Nodes() - 1
		if len(parts) > 1 && parts[1] != "" {
			f, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("traffic: bad hotspot fraction %q: %w", parts[1], err)
			}
			frac = f
		}
		if len(parts) > 2 {
			n, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("traffic: bad hotspot node %q: %w", parts[2], err)
			}
			hot = n
		}
		if err := hotspotErr(g, hot, frac); err != nil {
			return nil, err
		}
		return NewHotspot(g, hot, frac), nil
	case "local":
		radius := 3
		if len(parts) > 1 && parts[1] != "" {
			rv, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("traffic: bad local radius %q: %w", parts[1], err)
			}
			radius = rv
		}
		if err := localErr(g, radius); err != nil {
			return nil, err
		}
		return NewLocal(g, radius), nil
	case "transpose":
		return NewTranspose(g), nil
	case "bitrev":
		if _, err := idBits(g, "bit reversal"); err != nil {
			return nil, err
		}
		return NewBitReversal(g), nil
	case "complement":
		return NewComplement(g), nil
	case "tornado":
		if err := tornadoErr(g); err != nil {
			return nil, err
		}
		return NewTornado(g), nil
	case "shuffle":
		if _, err := idBits(g, "shuffle"); err != nil {
			return nil, err
		}
		return NewShuffle(g), nil
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", spec)
}
