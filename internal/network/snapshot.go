package network

import (
	"fmt"
	"sort"
	"strings"

	"wormsim/internal/telemetry"
	"wormsim/internal/topology"
)

// wormRef ties one live vc id to its worm for rendering: sorting refs by
// (message ID, injection-slot-first, lifetime received flits descending,
// owning channel) groups each worm's buffers contiguously in the canonical
// upstream-to-downstream order without building a per-call map.
type wormRef struct {
	id    int64
	vc    int32
	ch    int32
	recvd int32
}

// wormRefSort is a persistent sort.Interface over the worm-ref scratch, so
// rendering in the watchdog path sorts without allocating a closure.
type wormRefSort struct{ refs []wormRef }

func (w *wormRefSort) Len() int      { return len(w.refs) }
func (w *wormRefSort) Swap(i, j int) { w.refs[i], w.refs[j] = w.refs[j], w.refs[i] }
func (w *wormRefSort) Less(i, j int) bool {
	a, b := w.refs[i], w.refs[j]
	if a.id != b.id {
		return a.id < b.id
	}
	// Injection slot first, then upstream to downstream: lifetime
	// received-flit counts are non-increasing along a worm's channel chain
	// (a buffer cannot receive more than its upstream forwarded), with the
	// channel index as a deterministic tie-break.
	if (a.ch == -1) != (b.ch == -1) {
		return a.ch == -1
	}
	if a.recvd != b.recvd {
		return a.recvd > b.recvd
	}
	return a.ch < b.ch
}

// WormStates returns the canonical in-flight state: one telemetry.WormState
// per live worm, sorted by message ID, with each worm's held buffers ordered
// injection slot first and then upstream to downstream. Snapshot, the
// deadlock report and external tooling all render from this single model, so
// a worm whose *message.Message is shared across several virtual channels
// appears exactly once, deterministically.
func (n *Network) WormStates() []telemetry.WormState {
	refs := n.wormRefs[:0]
	for _, id := range n.active {
		m := n.vcMsg[id]
		if m == nil {
			continue
		}
		ch := int32(-1)
		if id < n.chanVCs {
			ch = id / int32(n.numVCs)
		}
		// A buffer has received what it holds and has sent on (an injection
		// slot's count is never compared: it sorts first).
		s := n.vcState[id]
		refs = append(refs, wormRef{id: m.ID, vc: id, ch: ch, recvd: s.sent + s.flits})
	}
	n.wormRefs = refs
	n.wormSort.refs = refs
	sort.Sort(&n.wormSort)
	states := make([]telemetry.WormState, 0, n.inFlight)
	for i := 0; i < len(refs); {
		j := i
		for j < len(refs) && refs[j].id == refs[i].id {
			j++
		}
		m := n.vcMsg[refs[i].vc]
		w := telemetry.WormState{
			ID: m.ID, Src: m.Src, Dst: m.Dst, Len: m.Len,
			HopsTaken: m.HopsTaken, HopsTotal: m.HopsTotal,
			Holding: make([]telemetry.VCHold, j-i),
		}
		for k := i; k < j; k++ {
			id, ch := refs[k].vc, refs[k].ch
			class := 0
			if ch >= 0 {
				class = int(id) % n.numVCs
			}
			s := n.vcState[id]
			w.Holding[k-i] = telemetry.VCHold{
				Ch: int(ch), Class: class,
				Node: int(n.vcNode[id]), Flits: int(s.flits),
			}
			// The header sits in the buffer that has forwarded nothing yet:
			// the injection slot before the first hop, or the deepest buffer
			// that has received at least one flit.
			if s.sent == 0 && (s.flits > 0 || ch == -1) {
				w.Routed = s.out.ch != outNone
				w.HeadNode = int(n.vcNode[id])
			}
		}
		states = append(states, w)
		i = j
	}
	return states
}

// Snapshot renders a human-readable dump of the current network state: one
// line per in-flight worm with its position, held virtual channels and
// buffered flits. It is a thin rendering of WormStates — the same in-flight
// model behind the deadlock watchdog's report — so every consumer of
// "what is in the network right now" agrees, and the listing is
// deterministic (worms sorted by ID, buffers upstream to downstream) even
// when one message occupies many virtual channels.
func (n *Network) Snapshot() string {
	states := n.WormStates()
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: %d worms in flight, %d VC buffers live\n", n.now, n.inFlight, len(n.active))
	for _, w := range states {
		fmt.Fprintf(&b, "  %v head at %s\n", w, nodeName(n.g, w.HeadNode))
	}
	return b.String()
}

// describeStuck renders up to limit stuck worms for deadlock diagnostics.
func (n *Network) describeStuck(limit int) string {
	states := n.WormStates()
	var b strings.Builder
	for i, w := range states {
		if i >= limit {
			fmt.Fprintf(&b, "  ... and %d more\n", len(states)-limit)
			break
		}
		fmt.Fprintf(&b, "  %v head at %s\n", w, nodeName(n.g, w.HeadNode))
	}
	return b.String()
}

// nodeName renders a node id with coordinates for diagnostics.
func nodeName(g *topology.Grid, node int) string {
	if node < 0 {
		return "edge"
	}
	coords := make([]int, g.N())
	return fmt.Sprintf("%d%v", node, g.Coords(node, coords))
}
