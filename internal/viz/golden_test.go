package viz

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

// gridCounts fills every channel slot of g, present or not, with a
// deterministic spread of values, so a golden pins both the node sums and
// that slots without a channel (a mesh's boundary) are ignored.
func gridCounts(g *topology.Grid) []int64 {
	counts := make([]int64, g.ChannelSlots())
	for ch := range counts {
		counts[ch] = int64(ch*37%23) * 5
	}
	return counts
}

// roots ranks channels as congestion-tree roots, as forensics reports them.
func roots(chs ...int) []forensics.Root {
	out := make([]forensics.Root, len(chs))
	for i, ch := range chs {
		out[i].Ch = ch
	}
	return out
}

// TestNodeGridGolden pins every document the node-grid views render, byte
// for byte: the text and SVG heatmaps and the blame map on a 2-D torus and
// a 2-D mesh, and their placeholders, with the comparison plot's.
func TestNodeGridGolden(t *testing.T) {
	torus, mesh, cube := topology.NewTorus(4, 2), topology.NewMesh(3, 2), topology.NewTorus(3, 3)
	wide := topology.NewTorus(12, 2) // wider than the 320 px minimum
	docs := []struct {
		name, doc string
	}{
		{"ChannelHeatmap torus", ChannelHeatmap(torus, gridCounts(torus))},
		{"ChannelHeatmap mesh", ChannelHeatmap(mesh, gridCounts(mesh))},
		{"ChannelHeatmap 3-D", ChannelHeatmap(cube, gridCounts(cube))},
		{"HeatmapSVG torus", HeatmapSVG(torus, gridCounts(torus), "torus <4x4> & co")},
		{"HeatmapSVG mesh", HeatmapSVG(mesh, gridCounts(mesh), "mesh 3x3")},
		{"HeatmapSVG wide", HeatmapSVG(wide, gridCounts(wide), "wide")},
		{"HeatmapSVG idle", HeatmapSVG(mesh, make([]int64, mesh.ChannelSlots()), "idle")},
		{"HeatmapSVG empty", HeatmapSVG(torus, nil, "empty")},
		{"HeatmapSVG 3-D", HeatmapSVG(cube, gridCounts(cube), "cube")},
		{"BlameSVG torus", BlameSVG(torus, gridCounts(torus), roots(5, 17), `blame "torus"`)},
		{"BlameSVG mesh", BlameSVG(mesh, gridCounts(mesh), roots(1, 6), "blame mesh")},
		{"BlameSVG wide", BlameSVG(wide, gridCounts(wide), roots(0, 100, 200), "wide")},
		{"BlameSVG empty", BlameSVG(mesh, make([]int64, mesh.ChannelSlots()), nil, "none")},
		{"BlameSVG 3-D", BlameSVG(cube, gridCounts(cube), nil, "cube")},
		{"CompareSVG empty", CompareSVG("empty", nil)},
	}
	var b strings.Builder
	for _, d := range docs {
		fmt.Fprintf(&b, "== %s ==\n%s", d.name, d.doc)
	}
	got := b.String()
	path := filepath.Join("testdata", "nodegrid.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("node-grid documents drifted from %s (re-run with -update if intended)", path)
	}
}
