// Package viz renders small text visualizations of simulation output:
// per-node traffic heatmaps for two-dimensional networks, which make the
// hotspot tree and north-last's skew visible at a glance.
package viz

import (
	"fmt"
	"strings"

	"wormsim/internal/topology"
)

// shades orders glyphs from idle to busiest.
var shades = []byte(" .:-=+*#%@")

// shade maps v in [0, max] to a glyph.
func shade(v, max float64) byte {
	if max <= 0 {
		return shades[0]
	}
	idx := int(v / max * float64(len(shades)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(shades) {
		idx = len(shades) - 1
	}
	return shades[idx]
}

// ChannelHeatmap renders a 2-D grid where each cell aggregates the flit
// traffic on a node's outgoing physical channels, shaded relative to the
// busiest node. counts is the dense per-channel-slot vector from
// network.ChannelFlitCounts or core.Result.ChannelFlits. Rows are printed
// with dimension 1 increasing downward and dimension 0 across.
func ChannelHeatmap(g *topology.Grid, counts []int64) string {
	if g.N() != 2 {
		return fmt.Sprintf("(heatmap needs a 2-D grid, have %d dims)\n", g.N())
	}
	perNode := NodeTraffic(g, counts)
	max := 0.0
	for _, v := range perNode {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for y := 0; y < g.K(); y++ {
		for x := 0; x < g.K(); x++ {
			v := perNode[g.ID([]int{x, y})]
			b.WriteByte(shade(v, max))
			b.WriteByte(shade(v, max)) // double width for square aspect
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// NodeTraffic sums each node's outgoing channel flit counts.
func NodeTraffic(g *topology.Grid, counts []int64) []float64 {
	perNode := make([]float64, g.Nodes())
	for ch, c := range counts {
		if ch >= g.ChannelSlots() {
			break
		}
		id, dim, dir := g.ChannelInfo(ch)
		if g.HasChannel(id, dim, dir) {
			perNode[id] += float64(c)
		}
	}
	return perNode
}
