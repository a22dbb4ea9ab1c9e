// Package allowmulti is a wormlint test fixture for the comma-separated
// //lint:allow form and the stale-directive rule. A single line violates both
// simdeterminism (a wall-clock read) and hookguard (an unguarded profiler
// call); one directive naming both passes suppresses both. The unknown-pass
// directive below must itself become a [lintdirective] finding.
package allowmulti

import (
	"time"

	"wormsim/internal/telemetry"
)

// Sink absorbs values so the fixture has no unused results.
var Sink any

// Router is a stand-in engine stage holding an optional profiler.
type Router struct {
	prof *telemetry.PhaseProfiler
}

// Step reads the clock and the profiler, unguarded, in one line.
func (r *Router) Step() {
	Sink = [2]any{time.Now(), r.prof.Snapshot()} //lint:allow simdeterminism,hookguard (fixture: both passes suppressed by one directive)
}

// Control repeats the line without the directive.
func (r *Router) Control() {
	Sink = [2]any{time.Now(), r.prof.Snapshot()} // both passes must still fire here
}

// Stale carries a directive naming a pass that does not exist.
func Stale() {
	Sink = 1 //lint:allow nosuchpass (typo: this suppresses nothing)
}
