package network

import (
	"testing"

	"wormsim/internal/routing"
)

// FuzzScalarBatchEquivalence is the dynamic counterpart of wormlint's
// engineparity certificates: the static pass proves the scalar and batch
// engines read the same config, touch the same canonical state and draw the
// same RNG streams; this target proves the runtime consequence — replica r of
// a batch run is bit-identical to a scalar run with the same seed — across
// fuzzer-chosen topologies, algorithms, rates, router delays, injection-port
// budgets, run lengths and replica counts. Rates reach far past saturation:
// there the scalar engine parks and wakes blocked headers while the batch
// engine retries them all every cycle, so the comparison is the runtime
// check that parking changes nothing. The seed corpus passes in-tree with
// `go test`; nightly CI lets the fuzzer explore for five minutes.
func FuzzScalarBatchEquivalence(f *testing.F) {
	f.Add(uint64(11), uint8(0), uint8(0), uint16(200), uint8(20), uint8(2), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(1), uint16(128), uint8(35), uint8(0), uint8(0))
	f.Add(uint64(23), uint8(4), uint8(2), uint16(96), uint8(10), uint8(1), uint8(0))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(3), uint16(64), uint8(50), uint8(2), uint8(0))
	f.Add(uint64(1), uint8(5), uint8(4), uint16(300), uint8(5), uint8(1), uint8(0))
	// Saturated, with router delay and/or a port budget (knobs = delay | ports<<2).
	f.Add(uint64(5), uint8(2), uint8(0), uint16(400), uint8(195), uint8(1), uint8(0))
	f.Add(uint64(9), uint8(2), uint8(2), uint16(400), uint8(150), uint8(0), uint8(2))
	f.Add(uint64(13), uint8(0), uint8(5), uint16(300), uint8(120), uint8(1), uint8(1<<2))
	f.Add(uint64(17), uint8(4), uint8(1), uint16(350), uint8(195), uint8(2), uint8(3|2<<2))
	f.Add(uint64(21), uint8(3), uint8(4), uint16(447), uint8(100), uint8(0), uint8(1|1<<2))
	f.Fuzz(func(t *testing.T, seed uint64, shape, algPick uint8, cycles uint16, ratePct uint8, replicas uint8, knobs uint8) {
		gc := batchGrids[int(shape)%len(batchGrids)]
		g := batchGrid(gc.k, gc.n, gc.mesh)
		names := routing.Names()
		alg, err := routing.Get(names[int(algPick)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		if alg.Compatible(g) != nil {
			t.Skip("algorithm/topology pair not supported")
		}
		// Clamp to cheap-but-interesting runs: enough cycles to cross the
		// mid-run reseed and drain some worms, rates from near idle to 0.2
		// messages per node and cycle (several times saturation).
		runCycles := 64 + int64(cycles%448)
		rate := 0.005 + float64(ratePct%196)/1000.0
		routeDelay, ports := int(knobs&3), int(knobs>>2&3)
		seeds := make([]uint64, 1+int(replicas%3))
		for r := range seeds {
			seeds[r] = seed + uint64(r)*0x9e3779b97f4a7c15
		}
		got := batchFingerprints(t, g, alg, rate, routeDelay, ports, seeds, runCycles)
		for r, s := range seeds {
			if want := scalarFingerprint(t, g, alg, rate, routeDelay, ports, s, runCycles); got[r] != want {
				t.Errorf("replica %d (seed %d, %s, %s, rate %.3f, delay %d, ports %d, %d cycles) diverged from the scalar engine",
					r, s, gc.name, alg.Name(), rate, routeDelay, ports, runCycles)
			}
		}
	})
}
