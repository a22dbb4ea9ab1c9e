package network

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/engine_pins.txt from the current scalar engine")

const enginePinFile = "testdata/engine_pins.txt"

// pinKnobs is one non-default engine configuration. The benchmark digests
// and the recycling bit-identity tests only ever run the defaults (unlimited
// injection ports, no router delay, depth-2 buffers, full duplex, CCLimit 2,
// no observers); the pins cover everything else Config can switch on.
type pinKnobs struct {
	name       string
	msgLen     int // 0: 8
	bufDepth   int // 0: engine default (2)
	ccOff      bool
	ports      int
	routeDelay int
	halfDuplex bool
	policy     routing.SelectionPolicy
	hotspot    bool
	observed   bool
}

var pinVariants = []pinKnobs{
	{name: "base"},
	{name: "ports1", ports: 1},
	{name: "ports2", ports: 2},
	{name: "rd2", routeDelay: 2},
	{name: "rd5", routeDelay: 5},
	{name: "buf1", bufDepth: 1},
	{name: "vct", bufDepth: 8},
	{name: "vct-deep", bufDepth: 16},
	{name: "halfduplex", halfDuplex: true},
	{name: "cc0", ccOff: true},
	{name: "len1", msgLen: 1},
	{name: "len16", msgLen: 16},
	{name: "leastcong", policy: routing.LeastCongestedPolicy{}},
	{name: "hotspot", hotspot: true},
	{name: "observed", observed: true},
	{name: "observed-ports1-rd2", observed: true, ports: 1, routeDelay: 2},
	{name: "ports1-rd2", ports: 1, routeDelay: 2},
	{name: "ports1-cc0", ports: 1, ccOff: true},
	{name: "halfduplex-buf1", halfDuplex: true, bufDepth: 1},
	{name: "vct-ports1", bufDepth: 8, ports: 1},
	{name: "len1-buf1", msgLen: 1, bufDepth: 1},
	{name: "rd2-vct-hotspot", routeDelay: 2, bufDepth: 8, hotspot: true},
}

var pinGrids = []struct {
	name string
	grid func() *topology.Grid
}{
	{"8x8-torus", func() *topology.Grid { return topology.NewTorus(8, 2) }},
	{"4x4x4-torus", func() *topology.Grid { return topology.NewTorus(4, 3) }},
	{"6x6-mesh", func() *topology.Grid { return topology.NewMesh(6, 2) }},
}

var pinRates = []float64{0.01, 0.05, 0.2}

// pinDigest runs one configuration for 600 cycles with a reseed at 200 and
// 400 (the core sampling loop's rhythm) and hashes everything the engine
// lets a caller observe: the deliver and header-hop event stream, the counts
// of each 200-cycle window, the totals, per-channel flit counts, the final
// in-flight worm states and, when attached, the telemetry and forensics
// summaries and the tail of the lifecycle trace. The run happens on n,
// re-initialised for the configuration.
func pinDigest(t *testing.T, n *Network, g *topology.Grid, alg routing.Algorithm, rate float64, kn pinKnobs) string {
	t.Helper()
	const seed = 0x5eed
	var pattern traffic.Pattern = traffic.NewUniform(g)
	if kn.hotspot {
		pattern = traffic.NewHotspot(g, g.Nodes()/3, 0.2)
	}
	h := sha256.New()
	cfg := Config{
		Grid: g, Algorithm: alg, Policy: kn.policy,
		Workload: traffic.NewBernoulli(g, pattern, rate, seed),
		MsgLen:   8, BufDepth: kn.bufDepth, CCLimit: 2,
		InjectionPorts: kn.ports, RouteDelay: kn.routeDelay, HalfDuplex: kn.halfDuplex,
		Seed: seed,
		OnDeliver: func(m *message.Message) {
			fmt.Fprintf(h, "d %d %d %d %d %d %d\n", m.ID, m.Src, m.Dst, m.Latency(), m.FirstAlloc, m.HeadStalls)
		},
		OnHeaderHop: func(m *message.Message, node, dim int, dir topology.Dir) {
			fmt.Fprintf(h, "h %d %d %d %v\n", m.ID, node, dim, dir)
		},
	}
	if kn.msgLen != 0 {
		cfg.MsgLen = kn.msgLen
	}
	if kn.ccOff {
		cfg.CCLimit = 0
	}
	if kn.observed {
		cfg.Telemetry = &telemetry.Options{Trace: true}
		cfg.Forensics = &forensics.Options{SampleEvery: 16}
	}
	if err := n.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	start := n.Total()
	for leg := uint64(0); leg < 3; leg++ {
		if err := n.Run(200); err != nil {
			t.Fatal(err)
		}
		end := n.Total()
		fmt.Fprintf(h, "w %+v\n", window(start, end))
		if leg < 2 {
			start = end
			n.Reseed(seed + (leg+1)*0x9e3779b97f4a7c15)
		}
	}
	fmt.Fprintf(h, "t %+v\nc %v\ns %v\n", n.Total(), n.ChannelFlitCounts(), n.WormStates())
	if kn.observed {
		tel, fore := n.Observers()
		events, _ := n.Trace(0, 256)
		fmt.Fprintf(h, "T %+v\n%s", *tel, telemetry.FormatEvents(events))
		fmt.Fprintf(h, "F %+v\n", *fore)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestEnginePins holds the engine to digests recorded before its allocation
// and transfer scans were rewritten (generated by the full-scan engine that
// preceded them; regenerate only for a deliberate model change, with
// -update-pins). A mismatch names the configuration, which is also a
// runnable reproducer: grid / algorithm / rate / knob variant.
//
// All configurations run back to back on one recycled engine, so the pins
// also prove that Reset leaks nothing from one run into the next: consecutive
// lines change the virtual-channel count, buffer depth, duplex mode,
// congestion limit and observers, and the grid changes twice. Every seventh
// configuration is repeated on a fresh engine, which keeps New itself pinned
// and tells a recycling leak from an engine change.
func TestEnginePins(t *testing.T) {
	var got strings.Builder
	eng := new(Network)
	i := 0
	for _, gc := range pinGrids {
		g := gc.grid()
		for _, alg := range routing.All() {
			if alg.Compatible(g) != nil {
				continue
			}
			for _, rate := range pinRates {
				for _, kn := range pinVariants {
					digest := pinDigest(t, eng, g, alg, rate, kn)
					fmt.Fprintf(&got, "%s/%s/%g/%s %s\n", gc.name, alg.Name(), rate, kn.name, digest)
					if i++; i%7 == 0 {
						if fresh := pinDigest(t, new(Network), g, alg, rate, kn); fresh != digest {
							t.Errorf("%s/%s/%g/%s: recycled engine gives %s, fresh engine %s", gc.name, alg.Name(), rate, kn.name, digest, fresh)
						}
					}
				}
			}
		}
	}
	if *updatePins {
		if err := os.WriteFile(enginePinFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(enginePinFile)
	if err != nil {
		t.Fatalf("read pins (regenerate with -update-pins): %v", err)
	}
	if got.String() == string(data) {
		return
	}
	want := strings.Split(string(data), "\n")
	lines := strings.Split(got.String(), "\n")
	if len(want) != len(lines) {
		t.Fatalf("pin file holds %d configurations, the test runs %d", len(want)-1, len(lines)-1)
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("engine diverged from its pin:\n got  %s\n want %s", line, want[i])
		}
	}
}
