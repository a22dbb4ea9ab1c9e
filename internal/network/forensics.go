package network

import (
	"wormsim/internal/message"
)

// foreBlocked feeds the forensics analyzer after a failed route() for the
// header in vc slot id: it maintains the message's allocation-stall counter
// and, on sampled cycles, captures one wait-for edge — the first admissible
// candidate channel in routing order (necessarily busy: route fails only
// when every admissible candidate's target virtual channel is occupied) and
// the head slot of the worm holding it. route() has just left the candidate
// list in n.cands.
func (n *Network) foreBlocked(id int32, m *message.Message) {
	if n.fore == nil {
		return
	}
	if id < n.chanVCs {
		m.HeadStalls++
	}
	if !n.foreSampling {
		return
	}
	node := int(n.vcNode[id])
	var width int32
	first := int32(-1)
	var firstVC int16
	for _, c := range n.cands {
		ch := int32((node*n.nDims+c.Dim)*2 + int(c.Dir))
		if n.tbl.down[ch] < 0 {
			continue
		}
		width++
		if first < 0 {
			first, firstVC = ch, int16(c.VC)
		}
	}
	if first < 0 {
		n.fore.BlockedUnattributable()
		return
	}
	t := first*int32(n.numVCs) + int32(firstVC)
	holder := n.vcMsg[t]
	holderHead := int32(-1)
	holderID := int64(-1)
	if holder != nil && holder != m {
		holderHead = n.headSlotOf(t)
		holderID = holder.ID
	}
	n.fore.Blocked(id, m.ID, m.Class, first, firstVC, width, holderHead, holderID)
	if n.tel != nil {
		n.tel.Block(n.now, m.ID, node, int(first), int(firstVC), holderID)
	}
}

// headSlotOf walks a worm's channel chain downstream from one of its owned
// vc slots to the slot holding (or about to receive) its header: allocation
// happens at routing time, so following vcOut through slots owned by the
// same message terminates at an unrouted slot (the head buffer) or at an
// ejecting one. It returns -1 when the worm is draining at its destination
// — that worm is making progress, so a wait on it roots the congestion tree
// at the waited-for channel. The walk is bounded by the worm's path length.
func (n *Network) headSlotOf(t int32) int32 {
	m := n.vcMsg[t]
	for {
		out := n.vcOut[t]
		if out.ch == outNone {
			return t
		}
		if out.ch == outEject {
			return -1
		}
		next := out.ch*int32(n.numVCs) + int32(out.vc)
		if n.vcMsg[next] != m {
			return t // defensive: never happens while the chain is intact
		}
		t = next
	}
}
