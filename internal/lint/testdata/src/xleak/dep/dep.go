// Package dep holds the violations the xleak fixture's engine reaches
// across the package boundary. Lines the simdeterminism pass must report
// (with the xleak root configured) carry WANT markers.
package dep

import "time"

// Sink absorbs values so the fixture has no unused results.
var Sink any

// Mix is reached from xleak.(*Engine).Step by a plain cross-package call.
func Mix(n int) {
	Sink = n
	Sink = time.Now() // WANT simdeterminism
}

// Algorithm mirrors routing.Algorithm's shape: the engine calls it only
// through the interface.
type Algorithm interface {
	Route(n int) int
}

// Greedy is the sole implementation; its body is reachable only by
// devirtualizing the interface call in Step.
type Greedy struct{}

// Route reads the clock on the engine's path.
func (Greedy) Route(n int) int {
	return n + time.Now().Nanosecond() // WANT simdeterminism
}

// Taken is never called, but Step stores it as a function value — it may run
// later, so it is part of the engine's call graph.
func Taken() {
	Sink = time.Since(time.Time{}) // WANT simdeterminism
}

// Unreached is not referenced from Step's graph at all: legal.
func Unreached() {
	Sink = time.Now()
}
