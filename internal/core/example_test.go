package core_test

import (
	"fmt"

	"wormsim/internal/core"
)

// Example runs one small converged simulation point end to end. (Examples
// that run the simulator keep the network small and the windows short; see
// cmd/figures for publication-length sweeps.)
func Example() {
	res, err := core.Run(core.Config{
		K: 8, N: 2,
		Algorithm:    "nbc",
		Pattern:      "uniform",
		OfferedLoad:  0.3,
		Seed:         1,
		WarmupCycles: 1000,
		SampleCycles: 500,
		GapCycles:    100,
		MaxSamples:   4,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("delivered messages: %v over %d samples\n", res.Delivered > 0, res.Samples)
	fmt.Printf("latency above unloaded floor: %v\n", res.AvgLatency > res.MeanDistance+15)
	fmt.Printf("throughput within 10%% of offered: %v\n",
		res.Throughput > 0.27 && res.Throughput < 0.33)
	// Output:
	// delivered messages: true over 4 samples
	// latency above unloaded floor: true
	// throughput within 10% of offered: true
}

// ExampleRunFigure shows the parallel load sweep used to regenerate the
// paper's curves.
func ExampleRunFigure() {
	spec := core.FigureSpec{ID: "example", Pattern: "uniform", Algorithms: []string{"ecube"}, Loads: []float64{0.1, 0.3}}
	cfg := core.Config{
		K: 8, N: 2,
		Seed:         1,
		WarmupCycles: 800,
		SampleCycles: 400,
		GapCycles:    100,
		MaxSamples:   3,
	}
	fr, err := core.RunFigure(spec, cfg, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, r := range fr.Series[0].Results {
		fmt.Printf("rho=%.1f achieved within 15%%: %v\n",
			r.OfferedLoad, r.Throughput > 0.85*r.OfferedLoad)
	}
	// Output:
	// rho=0.1 achieved within 15%: true
	// rho=0.3 achieved within 15%: true
}

// ExampleFigures lists the paper's experiment specs.
func ExampleFigures() {
	for _, spec := range core.Figures() {
		fmt.Printf("%s: %s algorithms on %s traffic\n", spec.ID, spec.Switching, spec.Pattern)
	}
	// Output:
	// fig3: wormhole algorithms on uniform traffic
	// fig4: wormhole algorithms on hotspot:0.04:255 traffic
	// fig5: wormhole algorithms on local:3 traffic
	// vct: vct algorithms on uniform traffic
}
