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
	svgSwatch    = 14 // px per legend ramp step
)

// nodeMap holds what differs between the SVG node-grid views; draw renders
// the rest.
type nodeMap struct {
	view    string   // the view's name in its 2-D notice
	down    bool     // a channel counts at the node it enters, not leaves
	ramp    []string // cell fills, idle to largest
	unit    string   // what a cell's value counts, in its tooltip
	legend  string   // what the largest value is, in the legend
	legendX int      // legend text's right edge past the ramp strip
}

var heatmap = nodeMap{view: "heatmap", ramp: blueRamp, unit: "flits", legend: "flits (busiest node)", legendX: 140}

// draw renders counts summed onto the nodes of a 2-D grid as a standalone
// SVG document: one cell per node, filled from m.ramp scaled to the largest
// node, with a hover tooltip (SVG <title>) per cell and a min/max legend.
// Nodes set in ringed get a ring stroke and a "(tree root)" tooltip note.
// Output is a pure function of the inputs, so identical runs produce
// byte-identical documents.
func (m nodeMap) draw(g *topology.Grid, counts []int64, ringed []bool, title string) string {
	if g.N() != 2 {
		return Notice(needs2D(m.view, g))
	}
	perNode, top := nodeSums(g, counts, m.down)
	k := g.K()
	gridSpan := k*svgCell + (k-1)*svgGap
	w := max(gridSpan+2*svgPad, 320)
	h := svgTitleRoom + gridSpan + svgLegendH + 2*svgPad

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", w, h, svgSurface)
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="system-ui,sans-serif" font-size="13" font-weight="600" fill="%s">%s</text>`+"\n",
		svgPad, svgPad+12, svgInk, escapeXML(title))

	y0 := svgPad + svgTitleRoom
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			id := g.ID([]int{x, y})
			v := perNode[id]
			ring, note := "", ""
			if id < len(ringed) && ringed[id] {
				ring = fmt.Sprintf(` stroke="%s" stroke-width="2"`, svgInk)
				note = " (tree root)"
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" rx="3" fill="%s"%s><title>node (%d,%d): %.0f %s%s</title></rect>`+"\n",
				svgPad+x*(svgCell+svgGap), y0+y*(svgCell+svgGap), svgCell, svgCell, pick(m.ramp, v, top), ring, x, y, v, m.unit, note)
		}
	}

	// Legend: the full ramp as a strip with min/max annotations.
	ly := y0 + gridSpan + 14
	for i, c := range m.ramp {
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="10" fill="%s"/>`+"\n", svgPad+i*svgSwatch, ly, svgSwatch, c)
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="system-ui,sans-serif" font-size="11" fill="%s">0</text>`+"\n", svgPad, ly+22, svgMutedInk)
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="end" font-family="system-ui,sans-serif" font-size="11" fill="%s">%.0f %s</text>`+"\n",
		svgPad+len(m.ramp)*svgSwatch+m.legendX, ly+22, svgMutedInk, top, m.legend)
	b.WriteString("</svg>\n")
	return b.String()
}

// HeatmapSVG renders the same per-node traffic aggregation as ChannelHeatmap
// as an SVG document (see nodeMap.draw) on a sequential blue ramp.
func HeatmapSVG(g *topology.Grid, counts []int64, title string) string {
	if len(counts) == 0 {
		// A run that has not moved a flit yet (or an engine without
		// flit-level channels) publishes no counts; render a valid
		// placeholder instead of an empty grid pretending to be data.
		return Notice("no channel data yet")
	}
	return heatmap.draw(g, counts, nil, title)
}

// Notice renders a small valid SVG document carrying only a message, for
// states where a real map or plot would be a lie (no data yet, wrong
// dimensionality).
func Notice(msg string) string {
	return fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="360" height="48" viewBox="0 0 360 48">`+"\n"+
		`<rect width="360" height="48" fill="%s"/>`+"\n"+
		`<text x="%d" y="28" font-family="system-ui,sans-serif" font-size="13" fill="%s">%s</text>`+"\n</svg>\n",
		svgSurface, svgPad, svgMutedInk, escapeXML(msg))
}

// escapeXML escapes text for an SVG text node or attribute value.
var escapeXML = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;").Replace
