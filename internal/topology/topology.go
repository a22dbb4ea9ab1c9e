// Package topology models k-ary n-cube (torus) and mesh interconnection
// networks as used by the paper: an n-dimensional grid with k nodes per
// dimension, adjacent nodes connected by two unidirectional links (one per
// direction). Nodes are identified both by a dense integer id and by an
// n-tuple of per-dimension coordinates.
package topology

import "fmt"

// Dir is a direction of travel along one dimension.
type Dir int

const (
	// Plus is the direction of increasing coordinate (wrapping k-1 -> 0 on a
	// torus).
	Plus Dir = 0
	// Minus is the direction of decreasing coordinate (wrapping 0 -> k-1 on
	// a torus).
	Minus Dir = 1
)

// String returns "+" or "-".
func (d Dir) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// Opposite returns the reverse direction.
func (d Dir) Opposite() Dir { return 1 - d }

// Grid is a k-ary n-cube (Wrap true) or an n-dimensional k-wide mesh
// (Wrap false). The zero value is not usable; construct with NewTorus or
// NewMesh.
type Grid struct {
	k     int
	n     int
	wrap  bool
	nodes int
	// stride[i] = k^i, used for id <-> coordinate conversion.
	stride []int
	// coordTab[id*n+dim] caches Coord(id, dim) and parityTab[id] caches the
	// coordinate-sum parity: the engine's injection path (message offset
	// decomposition, the hop schemes' parity classification) calls these for
	// every generated message, and the div/mod chains they replace dominate
	// that cost. O(nodes*n) words, built once at construction.
	coordTab  []int32
	parityTab []int8
}

// NewTorus returns a k-ary n-cube. It panics if k < 2 or n < 1.
func NewTorus(k, n int) *Grid { return newGrid(k, n, true) }

// NewMesh returns an n-dimensional mesh with k nodes per dimension. It
// panics if k < 2 or n < 1.
func NewMesh(k, n int) *Grid { return newGrid(k, n, false) }

// New returns NewMesh(k, n) if mesh is set and NewTorus(k, n) otherwise.
func New(k, n int, mesh bool) *Grid { return newGrid(k, n, !mesh) }

func newGrid(k, n int, wrap bool) *Grid {
	if k < 2 {
		panic(fmt.Sprintf("topology: radix k = %d must be >= 2", k))
	}
	if n < 1 {
		panic(fmt.Sprintf("topology: dimension n = %d must be >= 1", n))
	}
	g := &Grid{k: k, n: n, wrap: wrap, stride: make([]int, n)}
	g.nodes = 1
	for i := 0; i < n; i++ {
		g.stride[i] = g.nodes
		g.nodes *= k
	}
	g.coordTab = make([]int32, g.nodes*n)
	g.parityTab = make([]int8, g.nodes)
	for id := 0; id < g.nodes; id++ {
		p := 0
		for dim := 0; dim < n; dim++ {
			c := id / g.stride[dim] % k
			g.coordTab[id*n+dim] = int32(c)
			p += c
		}
		g.parityTab[id] = int8(p & 1)
	}
	return g
}

// K returns the radix (nodes per dimension).
func (g *Grid) K() int { return g.k }

// N returns the number of dimensions.
func (g *Grid) N() int { return g.n }

// Wrap reports whether the grid has wraparound links (torus).
func (g *Grid) Wrap() bool { return g.wrap }

// Nodes returns the total number of nodes, k^n.
func (g *Grid) Nodes() int { return g.nodes }

// String describes the grid, e.g. "16-ary 2-cube (torus)".
func (g *Grid) String() string {
	kind := "mesh"
	if g.wrap {
		kind = "torus"
	}
	return fmt.Sprintf("%d-ary %d-cube (%s)", g.k, g.n, kind)
}

// Coord returns coordinate i of node id.
func (g *Grid) Coord(id, dim int) int {
	return int(g.coordTab[id*g.n+dim])
}

// Coords fills dst (which must have length >= n) with the coordinates of
// node id and returns it, least significant dimension first.
func (g *Grid) Coords(id int, dst []int) []int {
	for i := 0; i < g.n; i++ {
		dst[i] = id % g.k
		id /= g.k
	}
	return dst[:g.n]
}

// ID returns the node id for the given coordinates.
func (g *Grid) ID(coords []int) int {
	id := 0
	for i := g.n - 1; i >= 0; i-- {
		c := coords[i]
		if c < 0 || c >= g.k {
			panic(fmt.Sprintf("topology: coordinate %d out of range [0,%d)", c, g.k))
		}
		id = id*g.k + c
	}
	return id
}

// Parity returns the sum of the node's coordinates modulo 2. Nodes with
// parity 1 are the "odd" nodes of the paper's negative-hop scheme.
func (g *Grid) Parity(id int) int {
	return int(g.parityTab[id])
}

// Neighbor returns the node adjacent to id in dimension dim, direction dir,
// or -1 if the link does not exist (mesh boundary).
func (g *Grid) Neighbor(id, dim int, dir Dir) int {
	c := g.Coord(id, dim)
	var nc int
	if dir == Plus {
		nc = c + 1
		if nc == g.k {
			if !g.wrap {
				return -1
			}
			nc = 0
		}
	} else {
		nc = c - 1
		if nc < 0 {
			if !g.wrap {
				return -1
			}
			nc = g.k - 1
		}
	}
	return id + (nc-c)*g.stride[dim]
}

// NumChannels returns the number of unidirectional physical channels in the
// network: 2n per node on a torus, fewer on a mesh (boundary links absent).
func (g *Grid) NumChannels() int {
	if g.wrap {
		return 2 * g.n * g.nodes
	}
	// Each dimension contributes (k-1) bidirectional link positions per line
	// of k nodes; lines per dimension = nodes/k; two unidirectional channels
	// per link.
	return 2 * g.n * (g.k - 1) * (g.nodes / g.k)
}

// ChannelSlots returns the size of a dense channel index space: one slot per
// (node, dim, dir). On a mesh some slots are invalid (boundary); use
// HasChannel to test.
func (g *Grid) ChannelSlots() int { return g.nodes * 2 * g.n }

// ChannelIndex returns the dense index of the outgoing channel from node id
// in (dim, dir).
func (g *Grid) ChannelIndex(id, dim int, dir Dir) int {
	return (id*g.n+dim)*2 + int(dir)
}

// ChannelInfo decodes a dense channel index into (node, dim, dir).
func (g *Grid) ChannelInfo(ch int) (id, dim int, dir Dir) {
	dir = Dir(ch & 1)
	ch >>= 1
	return ch / g.n, ch % g.n, dir
}

// HasChannel reports whether the outgoing channel from id in (dim, dir)
// exists.
func (g *Grid) HasChannel(id, dim int, dir Dir) bool {
	return g.Neighbor(id, dim, dir) >= 0
}

// Offset returns the signed per-dimension hop count from src to dst along a
// minimal path: positive means travel in Plus direction. On a torus the
// shorter way around the ring is chosen; an exact half-ring tie (offset
// k/2 for even k) is reported as +k/2, but TieInDim can be used to detect it
// so that callers may break the tie adaptively.
func (g *Grid) Offset(src, dst, dim int) int {
	sc := g.Coord(src, dim)
	dc := g.Coord(dst, dim)
	diff := dc - sc
	if !g.wrap {
		return diff
	}
	if diff > g.k/2 {
		diff -= g.k
	} else if diff < -g.k/2 {
		diff += g.k
	} else if diff == g.k/2 || (g.k%2 == 0 && diff == -g.k/2) {
		// Normalize the even-k half-ring case to +k/2.
		diff = g.k / 2
	}
	return diff
}

// TieInDim reports whether src and dst are exactly half a ring apart in dim,
// in which case both directions are minimal.
func (g *Grid) TieInDim(src, dst, dim int) bool {
	if !g.wrap || g.k%2 != 0 {
		return false
	}
	sc := g.Coord(src, dim)
	dc := g.Coord(dst, dim)
	diff := dc - sc
	if diff < 0 {
		diff += g.k
	}
	return diff == g.k/2
}

// Distance returns the minimal hop count from src to dst.
func (g *Grid) Distance(src, dst int) int {
	d := 0
	for i := 0; i < g.n; i++ {
		off := g.Offset(src, dst, i)
		if off < 0 {
			off = -off
		}
		d += off
	}
	return d
}

// Diameter returns the network diameter: n*floor(k/2) for a torus,
// n*(k-1) for a mesh.
func (g *Grid) Diameter() int {
	if g.wrap {
		return g.n * (g.k / 2)
	}
	return g.n * (g.k - 1)
}

// MaxNegativeHops returns the maximum number of negative hops any minimal
// route can take under the 2-colouring of the paper's negative-hop scheme:
// ceil(diameter/2). The grid is bipartite (even k for a torus; any mesh), so
// hops strictly alternate colour and at most every other hop is negative.
func (g *Grid) MaxNegativeHops() int {
	return (g.Diameter() + 1) / 2
}

// Bipartite reports whether the grid is 2-colourable by coordinate parity:
// true for meshes and for tori with even k. The paper's negative-hop
// schemes are defined only on bipartite grids.
func (g *Grid) Bipartite() bool {
	return !g.wrap || g.k%2 == 0
}

// CrossesDateline reports whether a hop from a node whose coordinate in dim
// is c, travelling dir, crosses the ring's dateline. The dateline is placed
// on the wraparound links: k-1 -> 0 for Plus, 0 -> k-1 for Minus. Dateline
// crossings drive the Dally–Seitz virtual-channel switch that makes
// dimension-order (and north-last) routing deadlock-free on rings.
func (g *Grid) CrossesDateline(c int, dir Dir) bool {
	if !g.wrap {
		return false
	}
	if dir == Plus {
		return c == g.k-1
	}
	return c == 0
}

// MeanUniformDistance returns the exact mean minimal distance over all
// ordered pairs src != dst, e.g. 8.031 for a 16-ary 2-cube (the paper's
// "average diameter" of 8.03).
func (g *Grid) MeanUniformDistance() float64 {
	// Distance distribution is translation invariant on a torus but not on a
	// mesh; enumerate src=0 only when wrap, else all pairs.
	total := 0
	pairs := 0
	if g.wrap {
		for dst := 1; dst < g.nodes; dst++ {
			total += g.Distance(0, dst)
		}
		pairs = g.nodes - 1
	} else {
		for src := 0; src < g.nodes; src++ {
			for dst := 0; dst < g.nodes; dst++ {
				if src == dst {
					continue
				}
				total += g.Distance(src, dst)
				pairs++
			}
		}
	}
	return float64(total) / float64(pairs)
}
