package network

import (
	"testing"

	"wormsim/internal/routing"
)

// FuzzRecycleEquivalence is the differential fuzz of engine recycling:
// a scalar run on a fresh engine against the same run as the second member
// of a batch, on an engine that has just been driven through a different
// configuration. Config A — fuzzer-chosen topology and algorithm, offered
// far past saturation so the engine is abandoned full of worms, parked
// headers and live injection slots — runs first; the same engine is then
// re-initialised for config B (its own topology, algorithm, rate, router
// delay, injection-port budget, buffer depth, duplex mode, selection policy
// and run length) and B's counters, per-channel flit counts, event stream
// and in-flight worm states must equal those of B on a fresh engine. Rates
// reach several times saturation, where the engine parks and wakes blocked
// headers, so the comparison also covers state the parking lists carry;
// both runs on the recycled engine pass checkInvariants after every cycle.
// With the observed bit set both configurations run under telemetry and
// forensics, and B's summaries are part of the comparison;
// with the alternative-observers bit B runs under other options than A's,
// so its collector and analyzer are A's, Reset to a new shape. The
// seed corpus passes in-tree with `go test`; nightly CI lets the fuzzer
// explore for five minutes.
func FuzzRecycleEquivalence(f *testing.F) {
	// shapes = A's grid | B's grid << 4, algPicks likewise; knobs = B's
	// delay | ports<<2 | buffer depth pick<<4 | half duplex (A too)<<6 |
	// least-congested selection<<7 | observed (A too)<<8 | B observed with
	// other options<<9.
	f.Add(uint64(11), uint8(0|2<<4), uint8(0|5<<4), uint16(200), uint8(20), uint16(0))
	f.Add(uint64(7), uint8(1|1<<4), uint8(1|1<<4), uint16(128), uint8(35), uint16(0))
	f.Add(uint64(23), uint8(4|0<<4), uint8(2|7<<4), uint16(96), uint8(10), uint16(0))
	f.Add(uint64(0xdeadbeef), uint8(3|5<<4), uint8(3|0<<4), uint16(64), uint8(50), uint16(1<<4))
	f.Add(uint64(1), uint8(5|2<<4), uint8(4|4<<4), uint16(300), uint8(5), uint16(2<<4))
	// B saturated too, with router delay and/or a port budget.
	f.Add(uint64(5), uint8(2|2<<4), uint8(0|5<<4), uint16(400), uint8(195), uint16(0))
	f.Add(uint64(9), uint8(2|3<<4), uint8(2|2<<4), uint16(400), uint8(150), uint16(2|3<<4))
	f.Add(uint64(13), uint8(0|4<<4), uint8(5|0<<4), uint16(300), uint8(120), uint16(1<<2))
	f.Add(uint64(17), uint8(4|2<<4), uint8(1|8<<4), uint16(350), uint8(195), uint16(3|2<<2|1<<4))
	f.Add(uint64(21), uint8(3|3<<4), uint8(4|4<<4), uint16(447), uint8(100), uint16(1|1<<2|2<<4))
	// Half duplex at a light load: a link idle in B until its clock reaches
	// the stamp A left on it is where a stale stamp would show. Then
	// least-congested selection, which reads the owner counts.
	f.Add(uint64(25), uint8(2|2<<4), uint8(5|5<<4), uint16(447), uint8(5), uint16(1<<6))
	f.Add(uint64(29), uint8(2|2<<4), uint8(5|9<<4), uint16(300), uint8(40), uint16(1<<7))
	// Observed: A is abandoned full of parked headers whose messages carry
	// blocked-cycle stamps from A's clock, and B — under a port budget in the
	// second seed — draws those messages from the pool.
	f.Add(uint64(33), uint8(2|2<<4), uint8(0|0<<4), uint16(400), uint8(150), uint16(1<<8))
	f.Add(uint64(37), uint8(0|2<<4), uint8(5|4<<4), uint16(350), uint8(195), uint16(2|1<<2|1<<8))
	// A observed on the largest grid, B on a smaller one under tracing and
	// every-cycle forensics: the recycled observers shrink and change mode.
	f.Add(uint64(41), uint8(4|0<<4), uint8(0|3<<4), uint16(300), uint8(120), uint16(1<<8|1<<9))
	f.Add(uint64(43), uint8(4|3<<4), uint8(4|1<<4), uint16(250), uint8(40), uint16(1|1<<2|1<<8|1<<9))
	names := routing.Names()
	f.Fuzz(func(t *testing.T, seed uint64, shapes, algPicks uint8, cycles uint16, ratePct uint8, knobs uint16) {
		point := func(shape, algPick uint8) (fpPoint, bool) {
			gc := batchGrids[int(shape)%len(batchGrids)]
			g := batchGrid(gc.k, gc.n, gc.mesh)
			alg, err := routing.Get(names[int(algPick)%len(names)])
			if err != nil {
				t.Fatal(err)
			}
			return fpPoint{g: g, alg: alg}, alg.Compatible(g) == nil
		}
		a, okA := point(shapes&15, algPicks&15)
		b, okB := point(shapes>>4, algPicks>>4)
		if !okA || !okB {
			t.Skip("algorithm/topology pair not supported")
		}
		// A: short and saturated, so it is abandoned mid-flight.
		a.rate, a.seed, a.cycles = 0.2, seed^0x5bd1e995, 150
		// B: clamped to cheap-but-interesting runs — enough cycles to cross
		// the mid-run reseed and drain some worms, rates from near idle to
		// 0.2 messages per node and cycle (several times saturation).
		b.rate = 0.005 + float64(ratePct%196)/1000.0
		b.seed, b.cycles = seed, 64+int64(cycles%448)
		b.routeDelay, b.ports = int(knobs&3), int(knobs>>2&3)
		b.bufDepth = []int{0, 1, 4, 8}[knobs>>4&3]
		// Half duplex on both, so A leaves the link-arbitration stamps dirty;
		// least-congested selection reads the owner counts A left behind.
		a.halfDuplex, b.halfDuplex = knobs>>6&1 == 1, knobs>>6&1 == 1
		if knobs>>7&1 == 1 {
			b.policy = routing.LeastCongestedPolicy{}
		}
		// Observers on both: B's run recycles the collector and analyzer A's
		// run used, and the parked headers A abandons leave their stamps on
		// pooled messages.
		a.observed, b.observed = knobs>>8&1 == 1, knobs>>8&1 == 1
		b.altObservers = knobs>>9&1 == 1

		// The recycled engine has its state and ledgers audited every cycle.
		eng := new(Network)
		a.check = true
		fingerprint(t, eng, a)
		if eng.InFlight() == 0 {
			t.Fatalf("config A (%s on a %d-ary %d-cube) left the engine empty", a.alg.Name(), a.g.K(), a.g.N())
		}
		recycled := b
		recycled.check = true
		if fingerprint(t, eng, recycled) != fingerprint(t, new(Network), b) {
			t.Errorf("%s (seed %d, rate %.3f, delay %d, ports %d, depth %d, %d cycles) after %s on one engine diverged from a fresh engine",
				b.alg.Name(), b.seed, b.rate, b.routeDelay, b.ports, b.bufDepth, b.cycles, a.alg.Name())
		}
	})
}
