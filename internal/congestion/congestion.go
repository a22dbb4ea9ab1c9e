// Package congestion implements the paper's injection-side congestion
// control, modelled on Lam & Reiser's input-buffer-limit scheme for
// store-and-forward networks: a node may hold at most Limit unsent messages
// of each message class; arrivals beyond the limit are discarded. This is
// what keeps the paper's latency curves bounded beyond saturation while
// achieved throughput continues to rise.
package congestion

// Limiter tracks per-node, per-class counts of messages resident at their
// source (accepted but with tail not yet injected). A nil *Limiter disables
// congestion control (everything is admitted).
//
// Counts live in one flat slice indexed node*classCap+class — message
// classes are small consecutive integers (virtual-channel numbers or hop
// counts), so a dense table beats a per-node map on the engine's admit
// path. The class capacity doubles on demand for the rare algorithm whose
// classes exceed the initial headroom.
type Limiter struct {
	limit    int
	nodes    int
	classCap int
	counts   []int32
}

// NewLimiter returns a limiter for nodes sources with the given per-class
// limit. A limit <= 0 returns nil: no congestion control.
func NewLimiter(nodes, limit int) *Limiter {
	if limit <= 0 {
		return nil
	}
	const initialClassCap = 8
	return &Limiter{
		limit: limit, nodes: nodes, classCap: initialClassCap,
		counts: make([]int32, nodes*initialClassCap),
	}
}

// Recycle returns a limiter for nodes sources with the given per-class
// limit, as NewLimiter does, on l's tables when they are large enough (l may
// be nil). The class capacity an earlier run widened is kept: it sets the
// table layout, nothing a caller can observe.
func (l *Limiter) Recycle(nodes, limit int) *Limiter {
	if l == nil || limit <= 0 || cap(l.counts) < nodes*l.classCap {
		return NewLimiter(nodes, limit)
	}
	counts := l.counts[:nodes*l.classCap]
	clear(counts)
	*l = Limiter{limit: limit, nodes: nodes, classCap: l.classCap, counts: counts}
	return l
}

// growClasses widens the per-node class table to hold class.
func (l *Limiter) growClasses(class int) {
	newCap := l.classCap * 2
	for newCap <= class {
		newCap *= 2
	}
	counts := make([]int32, l.nodes*newCap)
	for node := 0; node < l.nodes; node++ {
		copy(counts[node*newCap:], l.counts[node*l.classCap:(node+1)*l.classCap])
	}
	l.classCap = newCap
	l.counts = counts
}

// Limit returns the per-class limit (0 for a nil limiter).
func (l *Limiter) Limit() int {
	if l == nil {
		return 0
	}
	return l.limit
}

// Admit reports whether a new message of class at node may enter, and if so
// records it. A nil limiter admits everything.
func (l *Limiter) Admit(node, class int) bool {
	if l == nil {
		return true
	}
	if class >= l.classCap {
		l.growClasses(class)
	}
	idx := node*l.classCap + class
	if int(l.counts[idx]) >= l.limit {
		return false
	}
	l.counts[idx]++
	return true
}

// Release records that a previously admitted message of class has fully left
// node (its tail flit entered the network).
func (l *Limiter) Release(node, class int) {
	if l == nil {
		return
	}
	idx := node*l.classCap + class
	if l.counts[idx] <= 0 {
		panic("congestion: release without matching admit")
	}
	l.counts[idx]--
}

// Resident returns the number of admitted-but-unsent messages of class at
// node.
func (l *Limiter) Resident(node, class int) int {
	if l == nil || class >= l.classCap {
		return 0
	}
	return int(l.counts[node*l.classCap+class])
}
