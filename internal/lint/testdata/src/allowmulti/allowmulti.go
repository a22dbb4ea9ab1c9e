// Package allowmulti is a wormlint test fixture for the comma-separated
// //lint:allow form and the stale-directive rule. A single line violates both
// simdeterminism (map iteration) and hotalloc (map literal on the hot path);
// one directive naming both passes suppresses both. The unknown-pass
// directive below must itself become a [lintdirective] finding.
package allowmulti

// Sink absorbs values so the fixture has no unused results.
var Sink any

// Step is the per-cycle root the test configures hotalloc with.
func Step() {
	for k := range map[int]int{1: 2} { //lint:allow simdeterminism,hotalloc (fixture: both passes suppressed by one directive)
		Sink = k
	}
	for k := range map[int]int{3: 4} { // both passes must still fire here
		Sink = k
	}
}

// Stale carries a directive naming a pass that does not exist.
func Stale() {
	Sink = 1 //lint:allow nosuchpass (typo: this suppresses nothing)
}
