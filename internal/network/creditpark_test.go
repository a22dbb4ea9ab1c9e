package network

import (
	"testing"

	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// slotView is what TestCreditPark compares across one Step for a live slot.
type slotView struct {
	msg    *message.Message
	sent   int32
	flits  int32
	out    outRoute
	marked bool
}

// viewSlots records every live slot, by vc id.
func viewSlots(n *Network) map[int32]slotView {
	views := make(map[int32]slotView, len(n.active))
	for pos, id := range n.active {
		views[id] = slotView{
			msg: n.vcMsg[id], sent: n.vcSent[id], flits: n.vcFlits[id], out: n.vcOut[id],
			marked: bit(n.xferBits, pos),
		}
	}
	return views
}

// TestCreditPark follows two worms on a five-node line with one virtual
// channel per channel, two-flit buffers and a four-cycle router delay, long
// enough for the slots behind a waiting header to fill and park. Worm B
// (2→4) takes channel 2→3 in cycle 0 and holds it for its eight flits; worm A
// (0→4), injected in the same cycle, reaches node 2 and its header waits there
// for that channel. The test checks the three moves of a credit park:
//
//   - while A's header waits, A's body slots behind it leave the transfer scan;
//   - a parked slot is back on the scan after the cycle in which the buffer
//     ahead of it sends a flit on, and sends its own flit in the next cycle;
//   - a parked slot whose buffer ahead turns to ejection (a header at its
//     destination past its router delay) is visited, and sends, in that same
//     cycle.
func TestCreditPark(t *testing.T) {
	g := topology.NewMesh(5, 1)
	alg, err := routing.Get("ecube")
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewTrace(g, "blocked", []int64{0, 0}, []traffic.Arrival{{Src: 2, Dst: 4}, {Src: 0, Dst: 4}})
	n, err := New(Config{Grid: g, Algorithm: alg, Workload: wl, MsgLen: 8, BufDepth: 2, RouteDelay: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustSend := map[int32]*message.Message{} // slots woken last cycle by a sent flit
	maxBodyParked, sendWakes, ejectWakes := 0, 0, 0
	for n.Now() <= wl.LastCycle() || n.InFlight() > 0 {
		if n.Now() > 200 {
			t.Fatalf("%d worms still in flight at cycle %d", n.InFlight(), n.Now())
		}
		before := viewSlots(n)
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		c := n.Now() - 1
		checkInvariants(t, n)
		after := viewSlots(n)
		for s, m := range mustSend {
			// A slot gone from the list has sent its tail on.
			if v, ok := after[s]; ok && v.msg == m && v.sent <= before[s].sent {
				t.Fatalf("cycle %d: vc %d was woken by a credit in cycle %d but sent nothing", c, s, c-1)
			}
		}
		clear(mustSend)
		headParked, bodyParked := false, 0
		for s, v := range after {
			if v.msg.ID == 1 && v.out.ch == outNone && !bit(n.hdrBits, int(n.vcAIdx[s])) {
				headParked = true
			}
			if v.out.ch < 0 || v.flits == 0 {
				continue
			}
			tb := v.out.ch*int32(n.numVCs) + int32(v.out.vc)
			was, wasLive := before[s]
			parkedBefore := wasLive && was.msg == v.msg && was.flits > 0 && !was.marked
			if !v.marked && v.msg.ID == 1 {
				bodyParked++
			}
			prev, ok := before[tb]
			if !ok || prev.msg != v.msg {
				continue
			}
			if now := after[tb]; now.sent > prev.sent {
				// The buffer ahead sent a flit on this cycle: s has its credit
				// and is visited next cycle.
				if !v.marked {
					t.Fatalf("cycle %d: buffer %d sent a flit on, but vc %d behind it is still off the scan", c, tb, s)
				}
				if parkedBefore {
					sendWakes++
				}
				mustSend[s] = v.msg
			}
			if parkedBefore && prev.out.ch != outEject && after[tb].out.ch == outEject {
				// The buffer ahead turned to ejection in this cycle's
				// allocation: s was visited by this cycle's transfer.
				if v.sent <= was.sent {
					t.Fatalf("cycle %d: buffer %d turned to ejection, but vc %d parked behind it sent nothing", c, tb, s)
				}
				ejectWakes++
			}
		}
		if headParked {
			maxBodyParked = max(maxBodyParked, bodyParked)
		}
	}
	if maxBodyParked < 2 || sendWakes == 0 || ejectWakes == 0 {
		t.Fatalf("run does not exercise the credit park: at most %d of A's body slots parked behind its waiting header, %d wakes by a sent flit, %d by ejection",
			maxBodyParked, sendWakes, ejectWakes)
	}
}
