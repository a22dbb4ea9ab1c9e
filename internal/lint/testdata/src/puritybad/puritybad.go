// Package puritybad is a wormlint test fixture for the purity pass: one of
// every impurity class injected on a certified-pure path. Lines the pass
// should report carry a "// WANT purity" marker; the annotated counter is
// an exemption (recorded in the certificate, not a finding), and orphan's
// clock read is unreachable and must stay silent.
package puritybad

import (
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"wormsim/internal/lint/testdata/src/puritybad/dep"
)

// total is shared mutable state; Run writes it (impure) and readOnly only
// observes it (read-only tier).
var total int

// calls is the accepted observability counter.
var calls atomic.Int64

// weights is package state Run iterates without sorting.
var weights = map[string]int{"dor": 1, "west": 2}

// Run is the certified entry point.
func Run(n int) int {
	total++                    // WANT purity
	go spin()                  // WANT purity
	t := time.Now().Unix()     // WANT purity
	r := rand.Intn(10)         // WANT purity
	host, _ := os.Hostname()   // WANT purity
	w := runtime.GOMAXPROCS(0) // WANT purity
	calls.Add(1)               //lint:allow purity (observe-only counter; never read back into a result)
	sum := 0
	for _, v := range weights { // WANT purity
		sum += v
	}
	ch := make(chan int, 1)
	ch <- sum // WANT purity
	select {  // WANT purity
	case sum = <-ch: // WANT purity
	default:
	}
	_ = defaults()
	return n + readOnly() + int(t) + r + len(host) + w + sum + dep.Leak()
}

// defaults mirrors an environment read in core's Config.ApplyDefaults, the
// mutant only this pass catches: every test runs in one environment.
func defaults() bool { return os.Getenv("WORMSIM_VCT") != "" } // WANT purity

// readOnly observes shared state without writing: read-only, never a
// finding.
func readOnly() int { return total }

// spin is reachable only through Run's go statement.
func spin() {}

// orphan is unreachable from Run; its clock read must not be reported.
func orphan() int64 { return time.Now().UnixNano() }
