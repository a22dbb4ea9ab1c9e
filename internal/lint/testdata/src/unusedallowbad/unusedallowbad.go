// Package unusedallowbad is a wormlint test fixture for the stale-directive
// rule. Live's directive suppresses a live errfmt finding and must stay; the
// whole-line directive and the hookguard half of Partial's directive
// suppress nothing and are findings.
package unusedallowbad

import "fmt"

// Live is the control: its directive suppresses a real finding.
func Live(err error) error {
	return fmt.Errorf("live: %v", err) //lint:allow errfmt (control: suppresses a live finding)
}

// Clean wraps with %w, so the directive above it has nothing to suppress.
func Clean(err error) error {
	//lint:allow errfmt (nothing below flattens an error) // WANT lintdirective
	return fmt.Errorf("clean: %w", err)
}

// Partial mixes a live pass with a stale one in one directive.
func Partial(err error) error {
	return fmt.Errorf("partial: %v", err) //lint:allow errfmt,hookguard (no hook in sight) // WANT lintdirective
}
