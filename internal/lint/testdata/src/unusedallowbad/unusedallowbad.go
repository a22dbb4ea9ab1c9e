// Package unusedallowbad is a wormlint test fixture for the stale-directive
// rule. Live's directive suppresses a live hookguard finding and must stay;
// the whole-line directive in Guarded and the simdeterminism half of
// Partial's directive suppress nothing and are findings.
package unusedallowbad

import "wormsim/internal/telemetry"

// Sim is a stand-in engine with an optional collector.
type Sim struct {
	tel *telemetry.Collector
}

// Live is the control: its directive suppresses a real finding.
func (s *Sim) Live() {
	s.tel.EndCycle() //lint:allow hookguard (control: suppresses a live finding)
}

// Guarded checks the collector first, so the directive has nothing to
// suppress.
func (s *Sim) Guarded() {
	if s.tel != nil {
		//lint:allow hookguard (nothing below calls a hook unguarded) // WANT lintdirective
		s.tel.EndCycle()
	}
}

// Partial mixes a live pass with a stale one in one directive.
func (s *Sim) Partial() {
	s.tel.InjEnqueue() //lint:allow hookguard,simdeterminism (no clock in sight) // WANT lintdirective
}
