package lint

import "strings"

// UnusedAllow closes the suppression loop lintdirective opened: a
// //lint:allow directive whose pass names are all registered and spelled
// right, but which no longer suppresses any finding, is dead weight — it
// documents an exemption that no longer exists and silently widens the
// blind spot if the flagged code ever comes back. Each such directive (or
// stale pass name within a multi-pass directive) is a finding.
//
// The pass runs after every other pass in the same Run (see AfterPass), so
// "unused" is judged against what actually ran: a directive for a
// deselected pass is left alone, and one naming an unknown pass is
// lintdirective's finding, not ours.
type UnusedAllow struct {
	known map[string]bool
}

// NewUnusedAllow builds the pass over the registered pass names.
func NewUnusedAllow(names []string) *UnusedAllow {
	known := make(map[string]bool, len(names))
	for _, n := range names {
		known[n] = true
	}
	return &UnusedAllow{known: known}
}

// Name returns "unusedallow".
func (*UnusedAllow) Name() string { return "unusedallow" }

// Doc describes the pass.
func (*UnusedAllow) Doc() string {
	return "an //lint:allow directive that suppresses no finding is itself a finding"
}

// RunAfter judges every directive against the suppressions this run
// exercised. ran holds the names of the passes that ran.
func (u *UnusedAllow) RunAfter(prog *Program, ran map[string]bool) []Finding {
	var out []Finding
	for _, p := range prog.Pkgs {
		for _, d := range p.directives {
			var stale []string
			for _, pass := range d.passes {
				// Only judge what this run can prove stale: a registered
				// pass that ran and never fired on a covered line. A
				// directive for unusedallow itself suppresses a finding
				// Run has not filtered yet, so it is never judged.
				judgeable := u.known[pass] && ran[pass] && pass != u.Name()
				used := prog.usedAt(d.pos.Filename, d.cover[0], pass) ||
					prog.usedAt(d.pos.Filename, d.cover[1], pass)
				if judgeable && !used {
					stale = append(stale, pass)
				}
			}
			if len(stale) == 0 {
				continue
			}
			out = append(out, Finding{
				Pos:  d.pos,
				Pass: u.Name(),
				Msg: "//lint:allow " + strings.Join(stale, ",") +
					" suppresses no finding; the exemption it documents no longer exists — delete it",
			})
		}
	}
	return out
}
