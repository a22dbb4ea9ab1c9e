package lint

import "testing"

// TestCallGraphShapes pins the call-graph shapes the purity pass
// leans on: a method value and a deferred call both make their bodies
// reachable, while a call through a function-typed struct field (the hook
// boundary) does not — so Step's reachable set is exactly
// {Step, helper, cleanup}.
func TestCallGraphShapes(t *testing.T) {
	pkgs := loadFixtures(t, "callshapes")
	prog := NewProgram(pkgs)
	step := prog.FindFunc(pkgs[0].Path, "(*Engine).Step")
	if step == nil {
		t.Fatal("(*Engine).Step not found in the callshapes fixture")
	}
	reach := prog.Graph().ReachableFrom(step)
	got := make(map[string]bool)
	for fn := range reach.Set {
		if fd, _ := prog.Decl(fn); fd != nil {
			got[funcDeclName(fd)] = true
		}
	}
	for _, want := range []string{"(*Engine).Step", "(*Engine).helper", "(*Engine).cleanup"} {
		if !got[want] {
			t.Errorf("%s not reachable from Step; reachable: %v", want, got)
		}
	}
	for _, absent := range []string{"Tick", "Orphan"} {
		if got[absent] {
			t.Errorf("%s reachable from Step; the hook boundary must not invent edges", absent)
		}
	}
	if len(got) != 3 {
		t.Errorf("reachable set has %d functions, want exactly 3: %v", len(got), got)
	}
}
