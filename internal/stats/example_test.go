package stats_test

import (
	"fmt"

	"wormsim/internal/stats"
)

// Example shows the stratified population-mean estimator the paper uses
// for its convergence criterion: hop classes are strata with weights from
// the traffic pattern, so a biased sample (here: far messages oversampled)
// still estimates the population latency correctly.
func Example() {
	// Two hop classes: 75% of messages are near (latency ~20), 25% far
	// (latency ~40); the sample contains 10 near but 1000 far observations.
	s := stats.NewStratified([]float64{0.75, 0.25})
	for i := 0; i < 10; i++ {
		s.Add(0, 20)
	}
	for i := 0; i < 1000; i++ {
		s.Add(1, 40)
	}
	naive := (10.0*20 + 1000*40) / 1010
	fmt.Printf("naive mean: %.1f\n", naive)
	fmt.Printf("stratified mean: %.1f\n", s.Mean())
	// Output:
	// naive mean: 39.8
	// stratified mean: 25.0
}

func ExampleWelford() {
	var w stats.Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	fmt.Printf("mean %.1f stddev %.2f\n", w.Mean(), w.StdDev())
	// Output:
	// mean 5.0 stddev 2.14
}

func ExampleHistogram() {
	var h stats.Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	fmt.Printf("mean %.1f max %.0f\n", h.Mean(), h.Max())
	// Output:
	// mean 50.5 max 100
}

func ExampleConvergence() {
	c := &stats.Convergence{MinSamples: 3, MaxSamples: 12, Tolerance: 0.05}
	for sample := 1; ; sample++ {
		// One sampling period: every delivery took 42 cycles.
		s := stats.NewStratified([]float64{1})
		for i := 0; i < 100; i++ {
			s.Add(0, 42)
		}
		if c.Add(s) {
			break
		}
		fmt.Println("sample", sample, "not done")
	}
	mean, bound, converged := c.Estimate()
	fmt.Println("samples:", c.Samples(), "mean:", mean, "bound:", bound, "converged:", converged)
	// Output:
	// sample 1 not done
	// sample 2 not done
	// samples: 3 mean: 42 bound: 0 converged: true
}
