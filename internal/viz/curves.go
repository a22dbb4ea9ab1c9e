package viz

import (
	"fmt"
	"strings"
)

// CurveSeries is one algorithm's measured curve over offered load: the
// latency and throughput at each load, plus which points deadlocked. Slices
// are parallel; Loads must be ascending for a sensible polyline.
type CurveSeries struct {
	Name       string
	Loads      []float64
	Latency    []float64
	Throughput []float64
	Deadlocked []bool
}

// SaturationIndex returns the index of the series' peak-throughput point —
// the operating point the paper calls saturation, beyond which added load
// only adds latency — or -1 for an empty series. Deadlocked points never
// win: their throughput describes a collapsed network.
func (s CurveSeries) SaturationIndex() int {
	best, at := -1.0, -1
	for i, thr := range s.Throughput {
		if i < len(s.Deadlocked) && s.Deadlocked[i] {
			continue
		}
		if thr > best {
			best, at = thr, i
		}
	}
	return at
}

// seriesPalette colors overlay curves; series beyond its length wrap around.
var seriesPalette = []string{"#2a78d6", "#d97706", "#059669", "#dc2626", "#7c3aed", "#52514e"}

const (
	curveW     = 560 // total canvas width
	curveH     = 360 // total canvas height
	curvePadL  = 56  // room for the latency axis labels
	curvePadR  = 20
	curvePadT  = 40 // room for title + legend
	curvePadB  = 40 // room for the load axis labels
	curveTicks = 4
)

// CompareSVG overlays the latency-vs-offered-load curves of several series
// on one plot: one polyline and point markers per series, a hollow ring on
// each series' saturation point (peak throughput), crosses on deadlocked
// points, shared axes scaled to the data, and a legend. Output is a pure
// function of the inputs, so identical stores produce byte-identical
// documents — the golden test pins one.
func CompareSVG(title string, series []CurveSeries) string {
	var b strings.Builder
	maxLoad, maxLat := 0.0, 0.0
	points := 0
	for _, s := range series {
		for i, l := range s.Loads {
			points++
			if l > maxLoad {
				maxLoad = l
			}
			if i < len(s.Latency) && s.Latency[i] > maxLat {
				maxLat = s.Latency[i]
			}
		}
	}
	if points == 0 {
		return Notice("no comparable points yet")
	}
	if maxLoad <= 0 {
		maxLoad = 1
	}
	if maxLat <= 0 {
		maxLat = 1
	}

	plotW := float64(curveW - curvePadL - curvePadR)
	plotH := float64(curveH - curvePadT - curvePadB)
	// x and y map data coordinates onto the plot rectangle (y grows upward).
	x := func(load float64) float64 { return float64(curvePadL) + load/maxLoad*plotW }
	y := func(lat float64) float64 { return float64(curvePadT) + plotH - lat/maxLat*plotH }

	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`+"\n", curveW, curveH, curveW, curveH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`+"\n", curveW, curveH, svgSurface)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-family="system-ui,sans-serif" font-size="13" font-weight="600" fill="%s">%s</text>`+"\n",
		curvePadL, svgInk, escapeXML(title))

	// Gridlines and axis labels.
	for i := 0; i <= curveTicks; i++ {
		f := float64(i) / curveTicks
		gx, gy := x(f*maxLoad), y(f*maxLat)
		fmt.Fprintf(&b, `<line x1="%s" y1="%d" x2="%s" y2="%d" stroke="#e4e2de" stroke-width="1"/>`+"\n",
			coord(gx), curvePadT, coord(gx), curveH-curvePadB)
		fmt.Fprintf(&b, `<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#e4e2de" stroke-width="1"/>`+"\n",
			curvePadL, coord(gy), curveW-curvePadR, coord(gy))
		fmt.Fprintf(&b, `<text x="%s" y="%d" text-anchor="middle" font-family="system-ui,sans-serif" font-size="11" fill="%s">%.2f</text>`+"\n",
			coord(gx), curveH-curvePadB+16, svgMutedInk, f*maxLoad)
		fmt.Fprintf(&b, `<text x="%d" y="%s" text-anchor="end" font-family="system-ui,sans-serif" font-size="11" fill="%s">%.0f</text>`+"\n",
			curvePadL-6, coord(gy+4), svgMutedInk, f*maxLat)
	}
	fmt.Fprintf(&b, `<text x="%s" y="%d" text-anchor="middle" font-family="system-ui,sans-serif" font-size="11" fill="%s">offered load (fraction of capacity)</text>`+"\n",
		coord(float64(curvePadL)+plotW/2), curveH-8, svgMutedInk)
	fmt.Fprintf(&b, `<text x="14" y="%s" text-anchor="middle" font-family="system-ui,sans-serif" font-size="11" fill="%s" transform="rotate(-90 14 %s)">latency (cycles)</text>`+"\n",
		coord(float64(curvePadT)+plotH/2), svgMutedInk, coord(float64(curvePadT)+plotH/2))

	for si, s := range series {
		color := seriesPalette[si%len(seriesPalette)]
		if len(s.Loads) > 1 {
			var pts []string
			for i, l := range s.Loads {
				if i >= len(s.Latency) {
					break
				}
				pts = append(pts, coord(x(l))+","+coord(y(s.Latency[i])))
			}
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n", strings.Join(pts, " "), color)
		}
		sat := s.SaturationIndex()
		for i, l := range s.Loads {
			if i >= len(s.Latency) {
				break
			}
			px, py := x(l), y(s.Latency[i])
			if i < len(s.Deadlocked) && s.Deadlocked[i] {
				// Deadlocked point: a cross, not part of the usable curve.
				fmt.Fprintf(&b, `<path d="M%s %s l6 6 m0 -6 l-6 6" stroke="%s" stroke-width="2" fill="none"><title>%s rho=%.2f: deadlock</title></path>`+"\n",
					coord(px-3), coord(py-3), color, escapeXML(s.Name), l)
				continue
			}
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="3" fill="%s"><title>%s rho=%.2f: %.1f cycles, thr %.3f</title></circle>`+"\n",
				coord(px), coord(py), color, escapeXML(s.Name), l, s.Latency[i], thrAt(s, i))
			if i == sat {
				fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="7" fill="none" stroke="%s" stroke-width="1.5" stroke-dasharray="2 2"><title>%s saturation: peak throughput %.3f at rho=%.2f</title></circle>`+"\n",
					coord(px), coord(py), color, escapeXML(s.Name), thrAt(s, i), l)
			}
		}
		// Legend swatch + name, one row per series.
		ly := 16 + si*16
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`+"\n", curveW-160, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="system-ui,sans-serif" font-size="11" fill="%s">%s</text>`+"\n",
			curveW-144, ly+9, svgInk, escapeXML(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// thrAt is Throughput[i] tolerant of a short slice.
func thrAt(s CurveSeries, i int) float64 {
	if i < len(s.Throughput) {
		return s.Throughput[i]
	}
	return 0
}

// coord formats a pixel coordinate with one decimal — enough for crisp SVG,
// and a stable representation for the golden files.
func coord(v float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%.1f", v), ".0")
}
