package traffic

import (
	"fmt"

	"wormsim/internal/rng"
	"wormsim/internal/topology"
)

// Permutation is a deterministic pattern: every message from a source goes
// to the one destination the permutation assigns it, and a fixed point
// (a source mapped to itself) generates no traffic. The destinations are
// tabulated once by the constructor, so Dest and DestProb are lookups.
//
// The permutations are the matrix transpose, bit reversal and complement
// the paper's related work uses, and two from the standard
// interconnection-network evaluation suite: tornado (the adversary for
// minimal routing on rings) and the perfect shuffle (butterfly-style
// long-haul pattern).
type Permutation struct {
	name string
	dest []int // dest[src], or -1 at a fixed point
}

// newPermutation tabulates f over g's node ids.
func newPermutation(g *topology.Grid, name string, f func(src int) int) *Permutation {
	p := &Permutation{name: name, dest: make([]int, g.Nodes())}
	for src := range p.dest {
		p.dest[src] = f(src)
		if p.dest[src] == src {
			p.dest[src] = -1
		}
	}
	return p
}

// coordPermutation tabulates a permutation that rewrites the source's
// coordinate vector in place.
func coordPermutation(g *topology.Grid, name string, f func(coords []int)) *Permutation {
	coords := make([]int, g.N())
	return newPermutation(g, name, func(src int) int {
		f(g.Coords(src, coords))
		return g.ID(coords)
	})
}

// Name returns the permutation's name, e.g. "transpose".
func (p *Permutation) Name() string { return p.name }

// Dest returns the destination of src, or -1 at a fixed point.
func (p *Permutation) Dest(src int, _ *rng.Stream) int { return p.dest[src] }

// DestProb is 1 for src's destination, 0 otherwise.
func (p *Permutation) DestProb(src, dst int) float64 {
	if p.dest[src] == dst {
		return 1
	}
	return 0
}

// NewTranspose returns the matrix-transpose permutation: the destination's
// coordinate vector is the source's reversed ((i,j) -> (j,i) in two
// dimensions). Nodes on the diagonal generate no traffic. Glass & Ni report
// the turn-model algorithms beating e-cube on this pattern; experiment
// X-TRANS revisits that claim.
func NewTranspose(g *topology.Grid) *Permutation {
	return coordPermutation(g, "transpose", func(c []int) {
		for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
			c[i], c[j] = c[j], c[i]
		}
	})
}

// NewBitReversal returns the bit-reversal permutation on node ids; it
// panics unless the node count is a power of two. Palindromic ids generate
// no traffic.
func NewBitReversal(g *topology.Grid) *Permutation {
	bits, err := idBits(g, "bit reversal")
	mustValid(err)
	return newPermutation(g, "bitrev", func(src int) int {
		d := 0
		for i := 0; i < bits; i++ {
			d = d<<1 | (src>>i)&1
		}
		return d
	})
}

// idBits returns the width of g's node ids, log2 of the node count, and an
// error naming the pattern that needs it when the count is not a power of
// two.
func idBits(g *topology.Grid, pattern string) (int, error) {
	n := g.Nodes()
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		return 0, fmt.Errorf("traffic: %s needs a power-of-two node count, have %d", pattern, n)
	}
	return bits, nil
}

// NewComplement returns the complement permutation: each message goes to
// the node diametrically opposite the source (coordinates shifted by k/2 on
// a torus, mirrored on a mesh) — every message travels the full diameter,
// the adversarial long-haul pattern.
func NewComplement(g *topology.Grid) *Permutation {
	return coordPermutation(g, "complement", func(c []int) {
		for i := range c {
			if g.Wrap() {
				c[i] = (c[i] + g.K()/2) % g.K()
			} else {
				c[i] = g.K() - 1 - c[i]
			}
		}
	})
}

// NewTornado returns the tornado permutation: each message travels
// floor((k-1)/2) hops in the Plus direction of every dimension — almost
// half-way around each ring, the classic adversarial pattern that
// concentrates all traffic in one rotational direction and defeats any load
// balancing that relies on destination symmetry. It requires a torus (the
// pattern is rotational); at radix 2 every node is a fixed point.
func NewTornado(g *topology.Grid) *Permutation {
	mustValid(tornadoErr(g))
	hop := (g.K() - 1) / 2
	return coordPermutation(g, "tornado", func(c []int) {
		for i := range c {
			c[i] = (c[i] + hop) % g.K()
		}
	})
}

// tornadoErr reports why NewTornado would reject g, if it would.
func tornadoErr(g *topology.Grid) error {
	if !g.Wrap() {
		return fmt.Errorf("traffic: tornado needs a torus")
	}
	return nil
}

// NewShuffle returns the perfect-shuffle permutation on node ids (rotate
// the id's bits left by one); it panics unless the node count is a power
// of two. The all-zero and all-one ids are fixed points.
func NewShuffle(g *topology.Grid) *Permutation {
	bits, err := idBits(g, "shuffle")
	mustValid(err)
	return newPermutation(g, "shuffle", func(src int) int {
		top := src >> (bits - 1) & 1
		return (src<<1 | top) & (1<<bits - 1)
	})
}
