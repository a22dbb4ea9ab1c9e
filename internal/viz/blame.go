package viz

import (
	"wormsim/internal/forensics"
	"wormsim/internal/topology"
)

// redRamp is a single-hue sequential scale, light to dark, for blame-mass
// encoding. It is deliberately a different hue from the traffic heatmap's
// blueRamp so the two maps cannot be mistaken for each other side by side.
var redRamp = []string{
	"#fbe3dc", "#f9d3c8", "#f6c2b3", "#f3b09e", "#f09d89", "#eb8873",
	"#e5735f", "#dc5e4c", "#cd503e", "#ba4434", "#a5392b", "#8e2e22", "#76241a",
}

var blameMap = nodeMap{view: "blame map", down: true, ramp: redRamp, unit: "blamed worm-cycles",
	legend: "worm-cycles (most blamed node)", legendX: 160}

// BlameSVG renders congestion-blame mass as a 2-D node grid (see
// nodeMap.draw): each cell sums the blame attributed to the channels feeding
// that node (a channel's blame lands on its downstream endpoint, where the
// contended buffers live), on a sequential red ramp scaled to the
// most-blamed node. Nodes fed by a root channel — the top congestion-tree
// roots, as forensics.Summary.TopRoots ranks them — get a ring stroke so the
// roots stand out even when several neighbours carry similar mass. blame is
// the dense per-channel-slot vector from forensics.Summary.BlameByChannel.
func BlameSVG(g *topology.Grid, blame []int64, roots []forensics.Root, title string) string {
	var total int64
	for _, v := range blame {
		total += v
	}
	if total == 0 {
		return Notice("no blame recorded yet")
	}
	ringed := make([]bool, g.Nodes())
	for _, r := range roots {
		if id := endpoint(g, r.Ch, true); id >= 0 {
			ringed[id] = true
		}
	}
	return blameMap.draw(g, blame, ringed, title)
}
