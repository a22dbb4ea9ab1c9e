// Package simdet is a wormlint test fixture: the constructs the
// simdeterminism pass must flag, plus intentional variants it must not.
// Lines the pass should report carry a "// WANT simdeterminism" marker.
package simdet

import (
	"math/rand" // WANT simdeterminism
	"sort"
	"time"
)

// Tick absorbs values so the fixture has no unused results.
var Tick int64

// boot reads the wall clock in a package-level initializer.
var boot = time.Now().Unix() // WANT simdeterminism

// Draw uses the forbidden global generator: the import is flagged and
// so is the call site.
func Draw() int { return rand.Intn(6) } // WANT simdeterminism

// Stamp reads the wall clock twice.
func Stamp() {
	t := time.Now()              // WANT simdeterminism
	Tick += int64(time.Since(t)) // WANT simdeterminism
}

// Keys iterates a map without sorting.
func Keys(m map[string]int) []string {
	var ks []string
	for k := range m { // WANT simdeterminism
		ks = append(ks, k)
	}
	return ks
}

// SortedKeys is the annotated, intentional variant: collected then sorted.
func SortedKeys(m map[string]int) []string {
	var ks []string
	for k := range m { //lint:allow simdeterminism (collected then sorted)
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Sum is order-independent but annotated above the loop, exercising the
// directive-on-previous-line form.
func Sum(m map[string]int) int {
	total := 0
	//lint:allow simdeterminism (order-independent sum)
	for _, v := range m {
		total += v
	}
	return total
}
