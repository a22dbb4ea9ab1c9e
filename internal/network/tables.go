package network

import "wormsim/internal/topology"

// chanTable holds per-physical-channel lookup tables, precomputed once per
// grid shape (Reset keeps them while consecutive runs share it). Every entry
// is a pure function of the grid (topology.ChannelInfo, Neighbor,
// ChannelIndex, Coord and Parity composed over the dense channel index
// space), so replacing the per-call Grid methods on the cycle path
// with these flat reads cannot change routing decisions, RNG draw order or
// results — it only removes div/mod chains and a per-dimension parity loop
// from every flit transfer.
type chanTable struct {
	// k, n and wrap are the shape of the grid the tables were built for.
	k, n int
	wrap bool
	// up and down are the channel's endpoint nodes; down is -1 for mesh
	// boundary slots (the channel does not exist, see Grid.HasChannel).
	up   []int32
	down []int32
	// dim and dir decode the channel's direction of travel.
	dim []int8
	dir []int8
	// rev is the dense index of the opposite channel of the same physical
	// link (down -> up), or -1 on boundary slots; it drives the half-duplex
	// reverse-conflict arbitration.
	rev []int32
	// coord is the upstream node's coordinate in the channel's dimension and
	// parity its coordinate-sum parity — the two inputs of Message.Advance.
	coord  []int16
	parity []int8
}

// builtFor reports whether the tables describe a grid of g's shape.
func (t *chanTable) builtFor(g *topology.Grid) bool {
	return t.up != nil && t.k == g.K() && t.n == g.N() && t.wrap == g.Wrap()
}

// buildChanTable precomputes the tables for g.
func buildChanTable(g *topology.Grid) chanTable {
	slots := g.ChannelSlots()
	t := chanTable{
		k: g.K(), n: g.N(), wrap: g.Wrap(),
		up:     make([]int32, slots),
		down:   make([]int32, slots),
		dim:    make([]int8, slots),
		dir:    make([]int8, slots),
		rev:    make([]int32, slots),
		coord:  make([]int16, slots),
		parity: make([]int8, slots),
	}
	for ch := 0; ch < slots; ch++ {
		up, dim, dir := g.ChannelInfo(ch)
		down := g.Neighbor(up, dim, dir)
		t.up[ch] = int32(up)
		t.down[ch] = int32(down)
		t.dim[ch] = int8(dim)
		t.dir[ch] = int8(dir)
		if down >= 0 {
			t.rev[ch] = int32(g.ChannelIndex(down, dim, dir.Opposite()))
		} else {
			t.rev[ch] = -1
		}
		t.coord[ch] = int16(g.Coord(up, dim))
		t.parity[ch] = int8(g.Parity(up))
	}
	return t
}
