package network

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wormsim/internal/forensics"
	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// blockedAccount runs a saturated 8x8 torus for 600 cycles, with the window
// reset and reseed rhythm of pinDigest, and returns what the observers were
// told about blocked headers: the delivery stream with each worm's latency
// anatomy inputs, and telemetry's head-blocked counts after SettleBlocked at a
// checkpoint every 37 cycles. foreEvery is the forensics sampling period, 0
// for a telemetry-only run (which leaves HeadStalls at zero).
func blockedAccount(t *testing.T, alg routing.Algorithm, ports, delay int, foreEvery int64) (delivered, checkpoints []string) {
	t.Helper()
	const seed = 0xb10c
	g := topology.NewTorus(8, 2)
	tel := telemetry.New(telemetry.Options{}, g.ChannelSlots(), alg.NumVCs(g))
	cfg := Config{
		Grid: g, Algorithm: alg, Workload: traffic.NewBernoulli(g, traffic.NewUniform(g), 0.1, seed),
		MsgLen: 8, CCLimit: 2, InjectionPorts: ports, RouteDelay: delay, Seed: seed, Telemetry: tel,
		OnDeliver: func(m *message.Message) {
			delivered = append(delivered, fmt.Sprintf("%d %d %d %d", m.ID, m.Latency(), m.FirstAlloc, m.HeadStalls))
		},
	}
	if foreEvery > 0 {
		cfg.Forensics = forensics.New(forensics.Options{SampleEvery: foreEvery}, g.ChannelSlots())
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 600; c++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		if c%37 == 0 {
			n.SettleBlocked()
			checkpoints = append(checkpoints, fmt.Sprintf("%d %v", c, tel.Summary().HeadBlockedByClass))
		}
		if c == 200 || c == 400 {
			n.ResetWindow()
			n.Reseed(seed + uint64(c/200)*0x9e3779b97f4a7c15)
		}
	}
	return delivered, checkpoints
}

// TestLazyBlockedAccountingMatchesEager holds the lazy blocked-cycle account
// to the eager one. A forensics analyzer that samples every cycle wakes every
// parked header every cycle, so each blocked header bids, fails and is counted
// cycle by cycle — the engine as it was before headers parked under
// observation. A run sampled every 64 cycles, where headers sit parked for
// long stretches and are charged in one step, must report the same head-stall
// count on every delivered worm and the same telemetry counts at every
// checkpoint; a run with telemetry alone must report the same counts too.
func TestLazyBlockedAccountingMatchesEager(t *testing.T) {
	for _, name := range []string{"nbc", "ecube", "2pn"} {
		alg, err := routing.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ports := range []int{0, 1, 2} {
			for _, delay := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/ports%d/rd%d", name, ports, delay), func(t *testing.T) {
					eagerD, eagerC := blockedAccount(t, alg, ports, delay, 1)
					lazyD, lazyC := blockedAccount(t, alg, ports, delay, 64)
					_, telC := blockedAccount(t, alg, ports, delay, 0)
					if last := eagerC[len(eagerC)-1]; len(eagerD) == 0 || strings.HasSuffix(last, " []") {
						t.Fatalf("the run delivered %d worms and counted %q at its last checkpoint: it exercises nothing", len(eagerD), last)
					}
					if !slices.Equal(lazyD, eagerD) {
						t.Errorf("delivery stream (id, latency, first allocation, head stalls) differs between sampling every 64 cycles and every cycle%s", firstDiff(lazyD, eagerD))
					}
					if !slices.Equal(lazyC, eagerC) {
						t.Errorf("head-blocked checkpoints differ between sampling every 64 cycles and every cycle%s", firstDiff(lazyC, eagerC))
					}
					if !slices.Equal(telC, eagerC) {
						t.Errorf("head-blocked checkpoints differ between telemetry alone and every-cycle sampling%s", firstDiff(telC, eagerC))
					}
				})
			}
		}
	}
}

// firstDiff renders the first line at which two logs part.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("\n first at line %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("\n lengths %d and %d", len(got), len(want))
}
