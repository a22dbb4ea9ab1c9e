package lint

import (
	"path"
	"strings"
	"testing"
)

func conservationFixturePass(p *Package) *Conservation {
	extPath := path.Dir(p.Path) + "/engineext"
	return &Conservation{
		Model: &EngineModel{
			TargetPkg:  p.Path,
			CallPrefix: map[string]string{extPath + ".Pool": "pool"},
		},
		Roots: []string{"(*Eng).Step"},
		Quantities: []ConservedQuantity{
			{Name: "vc-ownership", Counter: "owners"},
			{Name: "credit", Counter: "credits"},
			{Name: "injection-ports", Counter: "ports"},
			{Name: "messages", Acquire: "pool.Get", Release: "pool.Put", LeakCheck: true},
		},
	}
}

func TestConservationFixture(t *testing.T) {
	p := loadFixture(t, "conservationbad")
	checkFixture(t, "conservationbad", conservationFixturePass(p))
}

// TestConservationMissingRoot: renaming the audited entry point must
// surface as a finding, not silently disarm the ledger.
func TestConservationMissingRoot(t *testing.T) {
	p := loadFixture(t, "conservationbad")
	pass := conservationFixturePass(p)
	pass.Roots = []string{"(*Eng).Tick"}
	got := Run([]*Package{p}, []Pass{pass})
	if len(got) != 1 || !strings.Contains(got[0].Msg, "(*Eng).Tick not found") {
		t.Errorf("missing root reported as %v, want one configuration finding", got)
	}
}
