package viz

import (
	"fmt"
	"strings"

	"wormsim/internal/topology"
)

// blueRamp is a single-hue sequential scale, light to dark, for magnitude
// encoding in the SVG heatmap. Idle cells take the lightest step so the grid
// geometry stays visible; the busiest node takes the darkest.
var blueRamp = []string{
	"#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
	"#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281", "#0d366b",
}

const (
	svgSurface   = "#fcfcfb"
	svgInk       = "#0b0b0b"
	svgMutedInk  = "#52514e"
	svgCell      = 26 // px per heatmap cell
	svgGap       = 2  // surface gap between cells
	svgPad       = 16 // outer padding
	svgTitleRoom = 24 // vertical room for the title line
	svgLegendH   = 34 // vertical room for the legend strip
)

// HeatmapSVG renders the same per-node traffic aggregation as ChannelHeatmap
// as a standalone SVG document: one cell per node of a 2-D grid, filled from
// a sequential blue ramp scaled to the busiest node, with a hover tooltip
// (SVG <title>) per cell and a min/max legend. Output is a pure function of
// the inputs, so identical runs produce byte-identical documents.
func HeatmapSVG(g *topology.Grid, counts []int64, title string) string {
	var b strings.Builder
	if len(counts) == 0 {
		// A run that has not moved a flit yet (or an engine without
		// flit-level channels) publishes no counts; render a valid
		// placeholder instead of an empty grid pretending to be data.
		return svgNotice("no channel data yet")
	}
	if g.N() != 2 {
		return svgNotice(fmt.Sprintf("heatmap needs a 2-D grid, have %d dims", g.N()))
	}

	k := g.K()
	perNode := NodeTraffic(g, counts)
	max := 0.0
	for _, v := range perNode {
		if v > max {
			max = v
		}
	}

	gridSpan := k*svgCell + (k-1)*svgGap
	w := gridSpan + 2*svgPad
	if w < 320 {
		w = 320
	}
	h := svgTitleRoom + gridSpan + svgLegendH + 2*svgPad

	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", w, h, svgSurface)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="system-ui,sans-serif" font-size="13" font-weight="600" fill="%s">%s</text>`+"\n",
		svgPad, svgPad+12, svgInk, escapeXML(title))

	top := svgPad + svgTitleRoom
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			v := perNode[g.ID([]int{x, y})]
			cx := svgPad + x*(svgCell+svgGap)
			cy := top + y*(svgCell+svgGap)
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" rx="3" fill="%s"><title>node (%d,%d): %.0f flits</title></rect>`+"\n",
				cx, cy, svgCell, svgCell, rampAt(blueRamp, v, max), x, y, v)
		}
	}

	// Legend: the full ramp as a strip with min/max annotations.
	ly := top + gridSpan + 14
	sw := 14
	for i, c := range blueRamp {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="10" fill="%s"/>`+"\n", svgPad+i*sw, ly, sw, c)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="system-ui,sans-serif" font-size="11" fill="%s">0</text>`+"\n", svgPad, ly+22, svgMutedInk)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" font-family="system-ui,sans-serif" font-size="11" fill="%s">%.0f flits (busiest node)</text>`+"\n",
		svgPad+len(blueRamp)*sw+140, ly+22, svgMutedInk, max)
	b.WriteString("</svg>\n")
	return b.String()
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
