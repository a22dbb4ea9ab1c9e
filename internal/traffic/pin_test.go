package traffic

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"wormsim/internal/topology"
)

// pinSpecs are the Parse specs workloadDigests covers: every pattern, at
// its defaults and with explicit arguments.
var pinSpecs = []string{
	"uniform", "hotspot", "hotspot:0.2:27", "local", "local:2",
	"transpose", "bitrev", "complement", "tornado", "shuffle",
}

// TestWorkloadPins folds, per (spec, grid), the pattern's name, 2,000
// cycles of Bernoulli arrivals at rate 0.05 (reseeded half-way), the mean
// distance and the hop-class weights into one FNV-64a digest and compares
// it with workloadDigests. A spec Parse rejects on a grid has no entry.
func TestWorkloadPins(t *testing.T) {
	for _, g := range []*topology.Grid{topology.NewTorus(16, 2), topology.NewMesh(8, 2)} {
		for _, spec := range pinSpecs {
			key := fmt.Sprintf("%s %v", spec, g)
			p, err := Parse(g, spec)
			if err != nil {
				if _, listed := workloadDigests[key]; listed {
					t.Errorf("%s: %v", key, err)
				}
				continue
			}
			h := fnv.New64a()
			fold := func(x uint64) {
				var b [8]byte
				for i := range b {
					b[i] = byte(x >> (8 * i))
				}
				h.Write(b[:])
			}
			h.Write([]byte(p.Name()))
			wl := NewBernoulli(g, p, 0.05, 1)
			var arr []Arrival
			for cycle := int64(0); cycle < 2000; cycle++ {
				if cycle == 1000 {
					wl.Reseed(2)
				}
				arr = wl.Arrivals(cycle, arr[:0])
				for _, a := range arr {
					fold(uint64(cycle))
					fold(uint64(a.Src))
					fold(uint64(a.Dst))
				}
			}
			fold(math.Float64bits(wl.MeanDistance()))
			for _, w := range wl.HopClassWeights() {
				fold(math.Float64bits(w))
			}
			if got, want := h.Sum64(), workloadDigests[key]; got != want {
				t.Errorf("%s: workload digest %#016x, want %#016x", key, got, want)
			}
		}
	}
}

// workloadDigests pins TestWorkloadPins.
var workloadDigests = map[string]uint64{
	"uniform 16-ary 2-cube (torus)":        0x0e2fb986458b4f31,
	"hotspot 16-ary 2-cube (torus)":        0xe656f86a6df55991,
	"hotspot:0.2:27 16-ary 2-cube (torus)": 0xf52031c59eb19123,
	"local 16-ary 2-cube (torus)":          0x2343e9e4780479f3,
	"local:2 16-ary 2-cube (torus)":        0x0b22c173c4bd02bd,
	"transpose 16-ary 2-cube (torus)":      0x9dbd8a57ddc5a9cb,
	"bitrev 16-ary 2-cube (torus)":         0xa6da71ee189dbf5c,
	"complement 16-ary 2-cube (torus)":     0xa18040703360f067,
	"tornado 16-ary 2-cube (torus)":        0xa6675dd7293332ea,
	"shuffle 16-ary 2-cube (torus)":        0x1fcca1c521aa4ba0,
	"uniform 8-ary 2-cube (mesh)":          0x9cdbdc38816ba8eb,
	"hotspot 8-ary 2-cube (mesh)":          0x5dba46931882f1a7,
	"hotspot:0.2:27 8-ary 2-cube (mesh)":   0x175897f0b2ffb228,
	"local 8-ary 2-cube (mesh)":            0x6f0cc682998d61ae,
	"local:2 8-ary 2-cube (mesh)":          0x247763bfa550adef,
	"transpose 8-ary 2-cube (mesh)":        0x430181705ee1c284,
	"bitrev 8-ary 2-cube (mesh)":           0x0a4a53681b760c0f,
	"complement 8-ary 2-cube (mesh)":       0x0c6b8ee96f900730,
	"shuffle 8-ary 2-cube (mesh)":          0x9a743033ce0ce319,
}
