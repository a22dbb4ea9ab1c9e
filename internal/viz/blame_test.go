package viz

import (
	"strings"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/topology"
)

func TestBlameSVG(t *testing.T) {
	g := topology.NewTorus(4, 2)
	blame := make([]int64, g.ChannelSlots())
	blame[5] = 40
	blame[9] = 10
	out := BlameSVG(g, blame, []forensics.Root{{Ch: 5}}, `nbc "hotspot" <run>`)
	if !strings.HasPrefix(out, "<svg ") || !strings.HasSuffix(out, "</svg>\n") {
		t.Fatalf("not a standalone SVG document:\n%.120s", out)
	}
	if got := strings.Count(out, "<rect "); got != 1+16+len(redRamp) {
		t.Errorf("rect count %d, want background + 16 cells + %d legend steps", got, len(redRamp))
	}
	if got := strings.Count(out, "tree root"); got != 1 {
		t.Errorf("ringed root cells %d, want exactly 1", got)
	}
	if !strings.Contains(out, `stroke="#0b0b0b"`) {
		t.Error("root cell missing ring stroke")
	}
	if !strings.Contains(out, "blamed worm-cycles") {
		t.Error("tooltips missing blame units")
	}
	if strings.Contains(out, "<run>") || !strings.Contains(out, "&lt;run&gt;") {
		t.Error("title not XML-escaped")
	}
	// Pure function: identical inputs render byte-identical documents.
	if out != BlameSVG(g, blame, []forensics.Root{{Ch: 5}}, `nbc "hotspot" <run>`) {
		t.Error("output not deterministic")
	}
}

func TestBlameSVGEmpty(t *testing.T) {
	g := topology.NewTorus(4, 2)
	out := BlameSVG(g, make([]int64, g.ChannelSlots()), nil, "t")
	if !strings.Contains(out, "no blame recorded yet") {
		t.Errorf("empty blame vector: %.120q", out)
	}
}

func TestBlameSVGNeedsTwoDims(t *testing.T) {
	g := topology.NewTorus(4, 3)
	blame := make([]int64, g.ChannelSlots())
	blame[0] = 1
	if out := BlameSVG(g, blame, nil, "t"); !strings.Contains(out, "needs a 2-D grid") {
		t.Errorf("3-D grid: %.120q", out)
	}
}

func TestBlameSVGIgnoresBogusRoots(t *testing.T) {
	g := topology.NewTorus(4, 2)
	blame := make([]int64, g.ChannelSlots())
	blame[3] = 5
	out := BlameSVG(g, blame, []forensics.Root{{Ch: -1}, {Ch: g.ChannelSlots() + 7}}, "t")
	if strings.Contains(out, "tree root") {
		t.Error("out-of-range root channels must not ring any cell")
	}
}
