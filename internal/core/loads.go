package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxLoadPoints bounds the points a load range may expand to, so that a
// tiny step is an error rather than an unbounded allocation.
const maxLoadPoints = 1000

// ParseLoads parses an offered-load axis specification: either a range
// "lo:hi:step" (inclusive of hi within floating slack) or a comma-separated
// list "0.1,0.25,0.4". Point i of a range is lo + i·step rounded to the most
// decimals any of the three fields is written with, so "0.1:0.5:0.2" gives
// exactly the loads "0.1,0.3,0.5" does (and with them the same config
// hashes). A range of more than maxLoadPoints points is refused.
func ParseLoads(spec string) ([]float64, error) {
	if strings.Contains(spec, ":") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("core: load range must be lo:hi:step, got %q", spec)
		}
		var lo, hi, step float64
		dec := 0
		for i, dst := range []*float64{&lo, &hi, &step} {
			v, err := strconv.ParseFloat(parts[i], 64)
			if err != nil {
				return nil, fmt.Errorf("core: bad load range component %q: %w", parts[i], err)
			}
			*dst = v
			dec = max(dec, decimals(parts[i]))
		}
		if !(step > 0) || !(hi >= lo) {
			return nil, fmt.Errorf("core: bad load range %q", spec)
		}
		points := math.Floor((hi-lo+1e-9)/step) + 1
		if !(points <= maxLoadPoints) {
			return nil, fmt.Errorf("core: load range %q has more than %d points", spec, maxLoadPoints)
		}
		loads := make([]float64, int(points))
		for i := range loads {
			loads[i], _ = strconv.ParseFloat(strconv.FormatFloat(lo+float64(i)*step, 'f', dec, 64), 64)
		}
		return loads, nil
	}
	var loads []float64
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad load %q: %w", s, err)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// decimals returns how many decimal places a number is written with:
// 2 for "0.25", 12 for "1e-12", 0 for "3".
func decimals(s string) int {
	mant, exp, _ := strings.Cut(strings.ToLower(s), "e")
	d := 0
	if _, frac, ok := strings.Cut(mant, "."); ok {
		d = len(frac)
	}
	if e, err := strconv.Atoi(exp); err == nil {
		d -= e
	}
	return max(d, 0)
}
