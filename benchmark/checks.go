package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"wormsim/internal/core"
)

// checker collects failed checks per Result index. A Result fails once no
// matter how many checks it trips; failed()/attempted is failed_share.
type checker struct {
	attempted int
	bad       map[int]bool
	notes     []string
	// digest is the SHA-256 over the cold Results, printed with every run so
	// that re-pinning digests.json is a copy from a seed-1 run.
	digest string
}

func newChecker(points int) *checker {
	return &checker{attempted: points, bad: make(map[int]bool)}
}

func (c *checker) fail(i int, format string, args ...any) {
	c.bad[i] = true
	if len(c.notes) < 20 { // enough to diagnose; a broken engine fails every point
		c.notes = append(c.notes, fmt.Sprintf("point %d: ", i)+fmt.Sprintf(format, args...))
	}
}

func (c *checker) failed() int { return len(c.bad) }

// invariants holds one cold Result to the conservation and methodology
// identities every completed run satisfies.
func (c *checker) invariants(i int, r core.Result, m method) {
	switch {
	case r.Deadlocked:
		c.fail(i, "deadlocked")
	case r.Generated != r.Admitted+r.Dropped:
		c.fail(i, "Generated %d != Admitted %d + Dropped %d", r.Generated, r.Admitted, r.Dropped)
	case r.Delivered > r.Admitted:
		c.fail(i, "Delivered %d > Admitted %d", r.Delivered, r.Admitted)
	case !(r.Throughput > 0 && r.Throughput <= 1):
		c.fail(i, "Throughput %g outside (0,1]", r.Throughput)
	case r.Cycles != m.warmup+int64(r.Samples)*(m.sample+m.gap):
		c.fail(i, "Cycles %d != %d + %d*(%d+%d)", r.Cycles, m.warmup, r.Samples, m.sample, m.gap)
	}
}

// same requires got to equal want both structurally and as encoded JSON
// (the form the run store persists and the digest covers).
func (c *checker) same(what string, want, got []core.Result) {
	if len(got) != len(want) {
		c.fail(0, "%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			c.fail(i, "%s: Result differs", what)
			continue
		}
		a, errA := json.Marshal(want[i])
		b, errB := json.Marshal(got[i])
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			c.fail(i, "%s: JSON differs", what)
		}
	}
}

// digest is the SHA-256 over the workload's Results as JSON, in grid order.
func digest(results []core.Result) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(results); err != nil {
		return "", fmt.Errorf("benchmark: encode results: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
