// Package viz renders simulation output as small text and SVG documents:
// node-grid maps of a two-dimensional network (channel traffic, congestion
// blame), which make the hotspot tree and north-last's skew visible at a
// glance, and latency curves compared across algorithms.
//
// Every node-grid view takes one path: a dense per-channel-slot vector is
// summed onto nodes (nodeSums), scaled to the largest node (pick), and
// drawn as a cell grid (ChannelHeatmap in text, nodeMap.draw in SVG).
package viz

import (
	"fmt"
	"strings"

	"wormsim/internal/topology"
)

// shades orders glyphs from idle to busiest.
var shades = []byte(" .:-=+*#%@")

// pick maps v in [0, top] onto steps ordered from idle to largest: the
// first step for zero (and for an all-idle map), the last for top.
func pick[T any](steps []T, v, top float64) T {
	if top <= 0 {
		return steps[0]
	}
	i := int(v / top * float64(len(steps)-1))
	return steps[min(max(i, 0), len(steps)-1)]
}

// endpoint returns the node that channel slot ch leaves, or with down the
// node it enters; -1 when g has no channel in that slot.
func endpoint(g *topology.Grid, ch int, down bool) int {
	if ch < 0 || ch >= g.ChannelSlots() {
		return -1
	}
	up, dim, dir := g.ChannelInfo(ch)
	switch {
	case !g.HasChannel(up, dim, dir):
		return -1
	case down:
		return g.Neighbor(up, dim, dir)
	}
	return up
}

// nodeSums adds each channel's entry of a dense per-channel-slot vector
// onto its endpoint node (see endpoint) and returns the largest node sum.
func nodeSums(g *topology.Grid, counts []int64, down bool) (sums []float64, top float64) {
	sums = make([]float64, g.Nodes())
	for ch, c := range counts {
		if id := endpoint(g, ch, down); id >= 0 {
			sums[id] += float64(c)
		}
	}
	for _, v := range sums {
		top = max(top, v)
	}
	return sums, top
}

// needs2D is the notice for a map of a grid that is not two-dimensional.
func needs2D(view string, g *topology.Grid) string {
	return fmt.Sprintf("%s needs a 2-D grid, have %d dims", view, g.N())
}

// ChannelHeatmap renders a 2-D grid where each cell aggregates the flit
// traffic on a node's outgoing physical channels, shaded relative to the
// busiest node. counts is the dense per-channel-slot vector from
// network.ChannelFlitCounts or core.Result.ChannelFlits. Rows are printed
// with dimension 1 increasing downward and dimension 0 across.
func ChannelHeatmap(g *topology.Grid, counts []int64) string {
	if g.N() != 2 {
		return "(" + needs2D(heatmap.view, g) + ")\n"
	}
	perNode, top := nodeSums(g, counts, false)
	var b strings.Builder
	for y := 0; y < g.K(); y++ {
		for x := 0; x < g.K(); x++ {
			c := pick(shades, perNode[g.ID([]int{x, y})], top)
			b.Write([]byte{c, c}) // double width for square aspect
		}
		b.WriteByte('\n')
	}
	return b.String()
}
