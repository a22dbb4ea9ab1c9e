package viz

import (
	"strings"
	"testing"

	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

func TestShadeBounds(t *testing.T) {
	if c := pick(shades, 0, 10); c != ' ' {
		t.Errorf("zero load should render blank, got %q", c)
	}
	if c := pick(shades, 10, 10); c != '@' {
		t.Errorf("max load should render '@', got %q", c)
	}
	if c := pick(shades, 5, 0); c != ' ' {
		t.Errorf("zero max should render blank, got %q", c)
	}
	if c := pick(shades, 20, 10); c != '@' {
		t.Errorf("overflow should clamp, got %q", c)
	}
	if c := pick(redRamp, -3, 10); c != redRamp[0] {
		t.Errorf("negative value should clamp to the lightest step, got %q", c)
	}
}

func TestNodeTraffic(t *testing.T) {
	g := topology.NewTorus(4, 2)
	counts := make([]int64, g.ChannelSlots())
	// Put 3 flits on each outgoing channel of node 5.
	for dim := 0; dim < 2; dim++ {
		for _, dir := range []topology.Dir{topology.Plus, topology.Minus} {
			counts[g.ChannelIndex(5, dim, dir)] = 3
		}
	}
	per, _ := nodeSums(g, counts, false)
	if per[5] != 12 {
		t.Errorf("node 5 traffic = %v, want 12", per[5])
	}
	for id, v := range per {
		if id != 5 && v != 0 {
			t.Errorf("node %d traffic = %v, want 0", id, v)
		}
	}
}

func TestChannelHeatmapShape(t *testing.T) {
	g := topology.NewTorus(8, 2)
	counts := make([]int64, g.ChannelSlots())
	counts[g.ChannelIndex(0, 0, topology.Plus)] = 100
	out := ChannelHeatmap(g, counts)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("heatmap has %d rows, want 8", len(lines))
	}
	for _, l := range lines {
		if len(l) != 16 { // double width
			t.Fatalf("row %q has width %d, want 16", l, len(l))
		}
	}
	// Busiest node is (0,0): top-left cell must be the darkest glyph.
	if lines[0][0] != '@' {
		t.Errorf("top-left = %q, want '@'", lines[0][0])
	}
	// Everything else idle.
	if strings.Count(out, "@") != 2 {
		t.Errorf("exactly one double-width hot cell expected:\n%s", out)
	}
}

func TestChannelHeatmapRejectsNon2D(t *testing.T) {
	g := topology.NewTorus(4, 3)
	out := ChannelHeatmap(g, make([]int64, g.ChannelSlots()))
	if !strings.Contains(out, "2-D") {
		t.Errorf("expected a dimension notice, got %q", out)
	}
}

// TestHeatmapShowsHotspotTree: run a hotspot workload and confirm the hot
// node's area renders as the busiest region.
func TestHeatmapShowsHotspotTree(t *testing.T) {
	g := topology.NewTorus(8, 2)
	alg, _ := routing.Get("nbc")
	hot := g.ID([]int{4, 4})
	wl := traffic.NewBernoulli(g, traffic.NewHotspot(g, hot, 0.3), 0.02, 5)
	n, err := network.New(network.Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 16, CCLimit: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(5000); err != nil {
		t.Fatal(err)
	}
	per, _ := nodeSums(g, n.ChannelFlitCounts(), false)
	// The hot node's four neighbours funnel the hotspot traffic; the
	// busiest node in the network must be adjacent to (or be) the hot node.
	busiest := 0
	for id, v := range per {
		if v > per[busiest] {
			busiest = id
		}
	}
	if g.Distance(busiest, hot) > 1 {
		t.Errorf("busiest node %d is %d hops from the hotspot", busiest, g.Distance(busiest, hot))
	}
}

func TestHeatmapSVG(t *testing.T) {
	g := topology.NewTorus(4, 2)
	counts := make([]int64, g.ChannelSlots())
	counts[g.ChannelIndex(5, 0, topology.Plus)] = 200
	counts[g.ChannelIndex(5, 1, topology.Minus)] = 50
	svg := HeatmapSVG(g, counts, `load 0.5 <"hot">`)
	if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatalf("not a standalone SVG document:\n%.120s", svg)
	}
	// 16 node cells + 13 legend swatches + 1 background rect.
	if got := strings.Count(svg, "<rect "); got != 16+13+1 {
		t.Errorf("rect count = %d, want 30", got)
	}
	if !strings.Contains(svg, "<title>node (1,1): 250 flits</title>") {
		t.Errorf("missing tooltip for busiest node:\n%s", svg)
	}
	// Busiest node takes the darkest ramp step; idle nodes the lightest.
	if !strings.Contains(svg, "#0d366b") || !strings.Contains(svg, "#cde2fb") {
		t.Error("ramp extremes not used")
	}
	if !strings.Contains(svg, "load 0.5 &lt;&quot;hot&quot;&gt;") {
		t.Error("title not XML-escaped")
	}
	if svg != HeatmapSVG(g, counts, `load 0.5 <"hot">`) {
		t.Error("output not deterministic")
	}
}

func TestHeatmapSVGNon2D(t *testing.T) {
	g := topology.NewTorus(4, 3)
	svg := HeatmapSVG(g, make([]int64, g.ChannelSlots()), "t")
	if !strings.Contains(svg, "needs a 2-D grid") {
		t.Errorf("expected placeholder for 3-D grid:\n%s", svg)
	}
}
