package lint

import (
	"testing"
)

// TestProgramSharedAcrossPasses is the load-once contract behind cmd/wormlint:
// one Program serves every pass and Run call, so the call graph is built
// exactly once and the declaration index is computed exactly once no matter
// how many whole-program passes consume them.
func TestProgramSharedAcrossPasses(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	prog := NewProgram(pkgs)

	purity := &Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Run"}}}
	// Two Run calls, a second graph-hungry pass and two exemption lists,
	// all against the same Program.
	Run(prog, []Pass{purity})
	Run(prog, []Pass{purity, &SimDeterminism{Roots: purity.Entries}})
	purity.exemptions(prog)
	purity.exemptions(prog)

	if prog.graphBuilds > 1 {
		t.Errorf("call graph built %d times on one Program, want at most 1", prog.graphBuilds)
	}
	first := prog.funcDecls()
	second := prog.funcDecls()
	if len(first) == 0 {
		t.Fatal("funcDecls returned no declarations for the puritybad fixture")
	}
	if &first[0] != &second[0] {
		t.Error("funcDecls rebuilt the declaration list instead of returning the cache")
	}
}

// TestProgramFreshGraphPerProgram: separate Programs do not share caches, so
// nothing one run derived or exercised can leak into the next, even over the
// same loaded packages.
func TestProgramFreshGraphPerProgram(t *testing.T) {
	p := loadFixture(t, "puritybad")
	a, b := NewProgram([]*Package{p}), NewProgram([]*Package{p})
	if a.Graph() == b.Graph() {
		t.Error("two Programs returned the same *CallGraph; caches must be per-Program")
	}
	if a.graphBuilds != 1 || b.graphBuilds != 1 {
		t.Errorf("graphBuilds = %d/%d, want 1/1", a.graphBuilds, b.graphBuilds)
	}
}

// BenchmarkSharedProgram measures the cmd/wormlint architecture: one Program
// amortizes the call graph and declaration index across every pass.
func BenchmarkSharedProgram(b *testing.B) {
	pkgs, passes := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := NewProgram(pkgs)
		for _, pass := range passes {
			Run(prog, []Pass{pass})
		}
	}
}

// BenchmarkPerPassProgram measures the pre-sharing architecture for
// comparison: every pass pays for its own Program (and thus its own call
// graph build).
func BenchmarkPerPassProgram(b *testing.B) {
	pkgs, passes := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pass := range passes {
			Run(NewProgram(pkgs), []Pass{pass})
		}
	}
}

// benchFixture loads the real module once (outside the timed region) so the
// benchmarks compare pure analysis cost: with a shared Program the
// whole-program passes build one call graph between them; per-pass Programs
// rebuild it for every graph-hungry pass.
func benchFixture(b *testing.B) ([]*Package, []Pass) {
	b.Helper()
	_, pkgs := loadModule(b)
	return pkgs, DefaultPasses()
}
