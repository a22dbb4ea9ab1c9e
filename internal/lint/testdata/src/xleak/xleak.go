// Package xleak is a wormlint test fixture for cross-package reachability:
// the engine root lives here, the violations live in the dep subpackage —
// one behind a plain cross-package call, one behind an interface call that
// the graph must devirtualize, one behind a function value the root merely
// stores. Constructs in this package are all legal; the WANT markers are in
// dep.
package xleak

import (
	"time"

	"wormsim/internal/lint/testdata/src/xleak/dep"
)

// Sink absorbs values so the fixture has no unused results.
var Sink any

// Engine mimics the simulator: it holds its routing algorithm only as an
// interface, so dep.Greedy's body is reachable solely by devirtualization.
type Engine struct {
	alg dep.Algorithm
}

// New wires the only implementation in.
func New() *Engine { return &Engine{alg: dep.Greedy{}} }

// Step is the per-cycle root.
func (e *Engine) Step() {
	dep.Mix(3)            // cross-package direct call
	Sink = e.alg.Route(3) // devirtualized interface call
	Sink = dep.Taken      // a function value that may be invoked later: an edge
}

// Cold is outside Step's call graph: reading the clock here is legal.
func Cold() {
	Sink = time.Now()
}
