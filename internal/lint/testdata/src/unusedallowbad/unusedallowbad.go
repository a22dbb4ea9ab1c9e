// Package unusedallowbad is a wormlint test fixture for the stale-directive
// rule. ErrLive's directive suppresses a live errfmt finding and must stay;
// the whole-line directive and the hookguard half of ErrPartial's directive
// suppress nothing and are findings.
package unusedallowbad

import "errors"

// ErrLive is the control: its directive suppresses a real finding.
var ErrLive = errors.New("Capitalized on purpose") //lint:allow errfmt (control: suppresses a live finding)

//lint:allow errfmt (nothing below violates the style) // WANT lintdirective
var ErrClean = errors.New("clean message")

// ErrPartial mixes a live pass with a stale one in one directive.
var ErrPartial = errors.New("Another capital") //lint:allow errfmt,hookguard (no hook in sight) // WANT lintdirective
