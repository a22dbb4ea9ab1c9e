// Package telemetry is the simulator's observability layer: a low-overhead
// metrics collector (per-channel busy cycles, per-virtual-channel-class
// occupancy, head-blocked cycles per routing class, injection-queue depth,
// congestion drops) plus a worm lifecycle tracer that captures structured
// events (inject, VC allocation, per-hop advance, delivery, watchdog kill)
// into a bounded sampled ring buffer, exportable as JSONL or Chrome
// trace_event JSON for chrome://tracing.
//
// The network engine holds a *Collector and guards every hook with a nil
// check, so a disabled collector costs one predictable branch per hook —
// BenchmarkTelemetryOverhead at the repository root keeps that claim honest.
package telemetry

import (
	"sort"
	"strconv"

	"wormsim/internal/stats"
)

// Options selects what a Collector records. The zero value records metrics
// only; Trace additionally captures lifecycle events.
type Options struct {
	// Metrics requests the per-channel / per-class counters. Collection is
	// cheap, so a Collector always gathers them; the flag records the
	// caller's intent (CLIs print the report only when set).
	Metrics bool
	// Trace enables lifecycle event capture.
	Trace bool
	// TraceCap bounds the event ring buffer (default 65536); the oldest
	// events are evicted on overflow and counted in Summary.TraceEvicted.
	TraceCap int
	// SampleEvery traces only worms whose ID is a multiple of it (default 1:
	// every worm). Raising it thins the trace at high load while keeping
	// every kept worm's lifecycle complete.
	SampleEvery int64
}

// withDefaults fills unset option fields.
func (o Options) withDefaults() Options {
	if o.TraceCap <= 0 {
		o.TraceCap = 1 << 16
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 1
	}
	return o
}

// Collector accumulates metrics and trace events for one simulation run. It
// is not safe for concurrent use; each run owns its collector (core.Sweep
// builds one per point from shared Options).
type Collector struct {
	opts Options

	cycles int64

	// channelBusy counts cycles each physical channel slot moved a flit
	// (1 flit/cycle capacity makes busy cycles == flit moves).
	channelBusy []int64
	// headBlocked counts cycles a present header failed virtual-channel
	// allocation, by the message's routing class (grown on demand: class
	// numbering is algorithm-specific).
	headBlocked []int64
	// occupied is the current number of owned virtual channels per class;
	// occupancy samples it once per cycle.
	occupied  []int64
	occupancy []stats.Gauge
	// injQueue is the current number of messages admitted but not fully
	// injected; injDepth samples it once per cycle.
	injQueue int64
	injDepth stats.Gauge
	drops    int64

	ring    []Event
	head    int // index of the oldest event
	n       int // events currently in the ring
	evicted int64
}

// New returns a collector for a network with the given number of physical
// channel slots and virtual-channel classes.
func New(opts Options, channelSlots, classes int) *Collector {
	return &Collector{
		opts:        opts.withDefaults(),
		channelBusy: make([]int64, channelSlots),
		occupied:    make([]int64, classes),
		occupancy:   make([]stats.Gauge, classes),
	}
}

// Tracing reports whether lifecycle events are being captured.
func (c *Collector) Tracing() bool { return c != nil && c.opts.Trace }

// Dims returns the channel-slot and class counts the collector was sized
// for, so an engine can validate a caller-supplied collector.
func (c *Collector) Dims() (channelSlots, classes int) {
	return len(c.channelBusy), len(c.occupied)
}

// sampled reports whether events of worm msg are kept.
func (c *Collector) sampled(msg int64) bool {
	return c.opts.Trace && msg%c.opts.SampleEvery == 0
}

// record appends ev to the ring, evicting the oldest event when full.
func (c *Collector) record(ev Event) {
	if len(c.ring) < c.opts.TraceCap {
		c.ring = append(c.ring, ev)
		c.n++
		return
	}
	c.ring[c.head] = ev
	c.head = (c.head + 1) % len(c.ring)
	c.evicted++
}

// EndCycle closes one simulation cycle: it samples the occupancy and
// injection-queue gauges against the cycle's final state.
func (c *Collector) EndCycle() {
	c.cycles++
	for i := range c.occupied {
		c.occupancy[i].Observe(float64(c.occupied[i]))
	}
	c.injDepth.Observe(float64(c.injQueue))
}

// FlitMove records a flit transfer on physical channel ch.
func (c *Collector) FlitMove(ch int) { c.channelBusy[ch]++ }

// HeadBlocked records one cycle in which a header of the given routing class
// bid for an output virtual channel and found none free.
func (c *Collector) HeadBlocked(class int) { c.HeadBlockedN(class, 1) }

// HeadBlockedN records k such cycles at once: the engine parks a blocked
// header and charges the cycles it sat out in one step when it is woken.
func (c *Collector) HeadBlockedN(class int, k int64) {
	for len(c.headBlocked) <= class {
		c.headBlocked = append(c.headBlocked, 0)
	}
	c.headBlocked[class] += k
}

// VCAcquired / VCReleased track current virtual-channel ownership per class.
func (c *Collector) VCAcquired(class int) { c.occupied[class]++ }

// VCReleased is the inverse of VCAcquired.
func (c *Collector) VCReleased(class int) { c.occupied[class]-- }

// InjEnqueue / InjDequeue track the admitted-but-not-fully-injected count.
func (c *Collector) InjEnqueue() { c.injQueue++ }

// InjDequeue is the inverse of InjEnqueue.
func (c *Collector) InjDequeue() { c.injQueue-- }

// Inject records admission of worm msg at src bound for dst.
func (c *Collector) Inject(cycle, msg int64, src, dst int) {
	if c.sampled(msg) {
		c.record(Event{Cycle: cycle, Msg: msg, Type: EvInject, Node: src, Ch: -1, VC: -1, Src: src, Dst: dst})
	}
}

// Drop records a congestion-control drop of worm msg at src.
func (c *Collector) Drop(cycle, msg int64, src, dst int) {
	c.drops++
	if c.sampled(msg) {
		c.record(Event{Cycle: cycle, Msg: msg, Type: EvDrop, Node: src, Ch: -1, VC: -1, Src: src, Dst: dst})
	}
}

// VCAlloc records worm msg acquiring virtual channel (ch, vc) while its
// header sits at node.
func (c *Collector) VCAlloc(cycle, msg int64, node, ch, vc int) {
	if c.sampled(msg) {
		c.record(Event{Cycle: cycle, Msg: msg, Type: EvVCAlloc, Node: node, Ch: ch, VC: vc, Src: -1, Dst: -1})
	}
}

// Hop records worm msg's header completing a hop into node over (ch, vc).
func (c *Collector) Hop(cycle, msg int64, node, ch, vc int) {
	if c.sampled(msg) {
		c.record(Event{Cycle: cycle, Msg: msg, Type: EvHop, Node: node, Ch: ch, VC: vc, Src: -1, Dst: -1})
	}
}

// Deliver records worm msg's tail being consumed at node.
func (c *Collector) Deliver(cycle, msg int64, node int) {
	if c.sampled(msg) {
		c.record(Event{Cycle: cycle, Msg: msg, Type: EvDeliver, Node: node, Ch: -1, VC: -1, Src: -1, Dst: -1})
	}
}

// Block records a sampled head-blocked observation from the forensics
// analyzer: worm msg's header at node wants virtual channel (ch, vc), held
// by worm blocker (-1 when unknown). Only sampled forensics cycles emit
// these, so they cannot flood the ring at saturation.
func (c *Collector) Block(cycle, msg int64, node, ch, vc int, blocker int64) {
	if c.sampled(msg) {
		c.record(Event{Cycle: cycle, Msg: msg, Type: EvBlock, Node: node, Ch: ch, VC: vc, Src: -1, Dst: -1, Blocker: blocker})
	}
}

// Kill records the deadlock watchdog giving up on worm msg stuck at node.
func (c *Collector) Kill(cycle, msg int64, node int) {
	if c.sampled(msg) {
		c.record(Event{Cycle: cycle, Msg: msg, Type: EvKill, Node: node, Ch: -1, VC: -1, Src: -1, Dst: -1})
	}
}

// Recorded returns the lifetime count of trace events recorded, including
// ones the ring has since evicted — a monotone cursor that lets periodic
// consumers (the observatory's tick publication) fetch only events newer
// than their previous read via LastEvents.
func (c *Collector) Recorded() int64 {
	if c == nil {
		return 0
	}
	return c.evicted + int64(c.n)
}

// Events returns the retained trace events in chronological order.
func (c *Collector) Events() []Event {
	if c == nil || c.n == 0 {
		return nil
	}
	out := make([]Event, 0, c.n)
	for i := 0; i < c.n; i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)])
	}
	return out
}

// LastEvents returns up to k of the most recent trace events in
// chronological order — the flight recorder the deadlock watchdog attaches
// to its report.
func (c *Collector) LastEvents(k int) []Event {
	if c == nil || c.n == 0 || k <= 0 {
		return nil
	}
	if k > c.n {
		k = c.n
	}
	out := make([]Event, 0, k)
	for i := c.n - k; i < c.n; i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)])
	}
	return out
}

// Summary is the JSON-friendly aggregation of a run's metrics, attached to
// core.Result.
type Summary struct {
	// Cycles the collector observed.
	Cycles int64
	// Drops counts congestion-control discards.
	Drops int64
	// ChannelBusy[ch] is the busy-cycle count of physical channel slot ch;
	// divide by Cycles for utilization (ChannelUtilization does).
	ChannelBusy stats.Counts
	// HeadBlockedByClass[k] counts header-blocked cycles of routing class k.
	HeadBlockedByClass []int64
	// VCOccupancyMean/Max summarize owned virtual channels per class,
	// sampled each cycle.
	VCOccupancyMean []float64
	VCOccupancyMax  []float64
	// InjQueueMean/Max summarize the admitted-but-not-injected backlog
	// across all nodes.
	InjQueueMean float64
	InjQueueMax  float64
	// TraceEvents is the number of retained events; TraceEvicted how many
	// the ring discarded.
	TraceEvents  int
	TraceEvicted int64
}

// Summary snapshots the collector's metrics.
func (c *Collector) Summary() *Summary {
	s := &Summary{
		Cycles:             c.cycles,
		Drops:              c.drops,
		ChannelBusy:        append([]int64(nil), c.channelBusy...),
		HeadBlockedByClass: append([]int64(nil), c.headBlocked...),
		VCOccupancyMean:    make([]float64, len(c.occupancy)),
		VCOccupancyMax:     make([]float64, len(c.occupancy)),
		InjQueueMean:       c.injDepth.Mean(),
		InjQueueMax:        c.injDepth.Max(),
		TraceEvents:        c.n,
		TraceEvicted:       c.evicted,
	}
	for i := range c.occupancy {
		s.VCOccupancyMean[i] = c.occupancy[i].Mean()
		s.VCOccupancyMax[i] = c.occupancy[i].Max()
	}
	return s
}

// ChannelUtilization returns busy cycles / observed cycles for channel ch.
func (s *Summary) ChannelUtilization(ch int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ChannelBusy[ch]) / float64(s.Cycles)
}

// BusiestChannels returns the k busiest channel slots, most-busy first,
// ties broken by channel index for determinism.
func (s *Summary) BusiestChannels(k int) []int {
	idx := make([]int, len(s.ChannelBusy))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if s.ChannelBusy[ia] != s.ChannelBusy[ib] {
			return s.ChannelBusy[ia] > s.ChannelBusy[ib]
		}
		return ia < ib
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// TotalHeadBlocked sums header-blocked cycles over all routing classes.
func (s *Summary) TotalHeadBlocked() int64 {
	var t int64
	for _, v := range s.HeadBlockedByClass {
		t += v
	}
	return t
}

// Metric is one named observable, for generic rendering of a Summary as a
// registry of counters and gauges.
type Metric struct {
	Name string
	// Kind is "counter" or "gauge".
	Kind string
	// Value is the counter total or gauge mean.
	Value float64
	// Max is the gauge maximum (0 for counters).
	Max float64
}

// Metrics flattens the summary into a deterministic metric list.
func (s *Summary) Metrics() []Metric {
	out := []Metric{
		{Name: "cycles", Kind: "counter", Value: float64(s.Cycles)},
		{Name: "congestion_drops", Kind: "counter", Value: float64(s.Drops)},
		{Name: "head_blocked_cycles", Kind: "counter", Value: float64(s.TotalHeadBlocked())},
		{Name: "injection_queue_depth", Kind: "gauge", Value: s.InjQueueMean, Max: s.InjQueueMax},
	}
	var busy int64
	for _, b := range s.ChannelBusy {
		busy += b
	}
	out = append(out, Metric{Name: "channel_busy_cycles", Kind: "counter", Value: float64(busy)})
	for i := range s.VCOccupancyMean {
		out = append(out, Metric{
			Name: "vc_occupancy_class_" + strconv.Itoa(i), Kind: "gauge",
			Value: s.VCOccupancyMean[i], Max: s.VCOccupancyMax[i],
		})
	}
	return out
}
