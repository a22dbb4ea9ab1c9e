package analysis_test

import (
	"fmt"

	"wormsim/internal/analysis"
)

func ExampleBalance() {
	even := analysis.Balance([]int64{100, 100, 100, 100})
	skewed := analysis.Balance([]int64{10, 20, 70, 300})
	fmt.Printf("even:   gini %.3f max/mean %.2f\n", even.Gini, even.MaxOverMean)
	fmt.Printf("skewed: gini %.3f max/mean %.2f\n", skewed.Gini, skewed.MaxOverMean)
	// Output:
	// even:   gini 0.000 max/mean 1.00
	// skewed: gini 0.575 max/mean 3.00
}
