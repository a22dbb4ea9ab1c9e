package network_test

import (
	"fmt"
	"strings"

	"wormsim/internal/message"
	"wormsim/internal/network"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
	"wormsim/internal/traffic"
)

// Example replays a communication trace instead of a steady-state workload,
// as the paper's sec. 4 plans for traces of real parallel programs. The
// trace is the all-to-all exchange of a 16×16 matrix transpose: node (x,y)
// off the diagonal sends one message to (y,x), in phases staggered 24 cycles
// apart by |x-y|. It is written in the text format traffic.ReadTrace parses
// ("cycle src dst" per line), parsed back, and replayed to completion; the
// makespan is the cycle the last message arrives.
func Example() {
	g := topology.NewTorus(16, 2)
	var text strings.Builder
	fmt.Fprintln(&text, "# cycle src dst")
	for y := 0; y < g.K(); y++ {
		for x := 0; x < g.K(); x++ {
			if x != y {
				phase := max(x-y, y-x)
				fmt.Fprintf(&text, "%d %d %d\n", (phase-1)*24, g.ID([]int{x, y}), g.ID([]int{y, x}))
			}
		}
	}

	for i, name := range []string{"ecube", "nlast", "nbc"} {
		trace, err := traffic.ReadTrace(g, "transpose", strings.NewReader(text.String()))
		if err != nil {
			fmt.Println(err)
			return
		}
		if i == 0 {
			fmt.Printf("%d-message transpose trace on %v, mean distance %.2f hops\n", trace.Len(), g, trace.MeanDistance())
		}
		alg, err := routing.Get(name)
		if err != nil {
			fmt.Println(err)
			return
		}
		var makespan, latency, delivered int64
		n, err := network.New(network.Config{
			Grid: g, Algorithm: alg, Workload: trace, MsgLen: 16, Seed: 11,
			OnDeliver: func(m *message.Message) {
				makespan = max(makespan, m.DeliverTime)
				latency += m.Latency()
				delivered++
			},
		})
		if err == nil {
			err = n.Run(trace.LastCycle() + 1)
		}
		if err == nil {
			err = n.Drain(200000)
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-6s makespan %d cycles, mean latency %.1f, %d messages\n",
			name, makespan, float64(latency)/float64(delivered), delivered)
	}
	// Output:
	// 240-message transpose trace on 16-ary 2-cube (torus), mean distance 8.53 hops
	// ecube  makespan 353 cycles, mean latency 23.5, 240 messages
	// nlast  makespan 353 cycles, mean latency 24.8, 240 messages
	// nbc    makespan 353 cycles, mean latency 31.7, 240 messages
}
