package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// SimDeterminism enforces the paper's reproducibility methodology on the
// simulation core: every run must be a pure function of its configuration
// and seeds (Boppana & Chalasani re-seed independent streams per sampling
// period, and the sweep/figure pipelines assume bit-identical reruns). The
// pass forbids
//
//   - importing math/rand or math/rand/v2 (use wormsim/internal/rng, whose
//     PCG streams are seeded, splittable and reproducible),
//   - the effect scanner's wall-clock facts: time.Now, Since, Until, Sleep
//     and timers (inject a clock like telemetry.Progress does when one is
//     genuinely needed),
//   - its rand facts: calls into math/rand or crypto/rand,
//   - its map-order facts: ranging over a map, maps.Keys/Values/All
//     (iteration order is randomized per run; iterate a sorted key slice
//     instead),
//
// in two scopes: everywhere inside the target packages (the declared
// simulation core: function bodies and package-level var initializers),
// and — via the program call graph — inside any function in any package
// reachable from the root entry points (the engine's cycle step, and the
// observatory's result-serving handlers), including through devirtualized
// interface calls. A helper in an untargeted package becomes
// part of the determinism contract the moment a root can reach it.
//
// Intentional uses — order-independent reductions over maps, telemetry
// wall-clock reads behind an injected clock — are annotated in place with
// //lint:allow simdeterminism and a reason.
//
// The bug this pass catches deterministically and tests only sometimes
// (DESIGN.md §5's mutation matrix, S1; the simdet fixture's Pending): the
// observatory's comparison emitting its points in map order, which its
// golden sees in about half of all runs.
type SimDeterminism struct {
	// Targets are the import paths the pass applies to in full; a path
	// matches exactly. Packages outside the simulation core (CLIs, rng
	// itself) are free to use the clock except where a root reaches them.
	Targets []string
	// Roots name the entry points for the reachability scope; empty
	// disables it (single-package fixture runs). All roots feed one
	// reachability query, so a function reachable from any of them is in
	// scope.
	Roots []FuncRef
}

// NewSimDeterminism targets the simulation-core packages named in the
// determinism contract — everything that runs between a Config and a Result
// — plus the figure/SVG renderers, and roots the reachability scope at the
// engine's cycle entry point and the observatory's result-serving handlers.
func NewSimDeterminism() *SimDeterminism {
	const observatory = "wormsim/internal/observatory"
	return &SimDeterminism{
		Targets: []string{
			"wormsim/internal/network",
			"wormsim/internal/routing",
			"wormsim/internal/topology",
			"wormsim/internal/traffic",
			"wormsim/internal/congestion",
			"wormsim/internal/core",
			"wormsim/internal/message",
			"wormsim/internal/cdg",
			// telemetry feeds golden-trace tests, so it is held to the same
			// standard; its one deliberate wall-clock read (the Progress ETA,
			// behind an injectable clock) is annotated in place.
			"wormsim/internal/telemetry",
			// runstore sits on the sweep's cache-hit branch: a Lookup that
			// read the clock or ranged a map would break the bit-identical
			// warm-rerun guarantee, so the whole package is in scope.
			"wormsim/internal/runstore",
			// viz renders the paper's figures and the comparison overlays;
			// a nondeterministic renderer would defeat the golden-SVG tests
			// and make identical runs paint different pictures.
			"wormsim/internal/viz",
			// forensics runs inside the engine's cycle loop and its summary
			// is golden-pinned; blame attribution must be a pure function of
			// the run.
			"wormsim/internal/forensics",
		},
		Roots: []FuncRef{
			{Pkg: "wormsim/internal/network", Func: "(*Network).Step"},
			// The observatory's result-serving paths: what a client reads
			// from /api/runs, /api/compare and /compare.svg must be a
			// deterministic function of the stored results.
			{Pkg: observatory, Func: "(*Server).handleRuns"},
			{Pkg: observatory, Func: "(*Server).handleRun"},
			{Pkg: observatory, Func: "(*Server).handleCompare"},
			{Pkg: observatory, Func: "(*Server).handleCompareSVG"},
		},
	}
}

// Name returns "simdeterminism".
func (*SimDeterminism) Name() string { return "simdeterminism" }

// Doc describes the pass.
func (*SimDeterminism) Doc() string {
	return "forbid math/rand, wall-clock reads and map iteration in the simulation core and everything the engine reaches"
}

// determinismHints maps the effect sources simdeterminism enforces to the
// fix its findings suggest.
var determinismHints = map[string]string{
	srcClock:    "inject a clock or //lint:allow simdeterminism with a reason",
	srcRand:     "use wormsim/internal/rng streams",
	srcMapOrder: "iterate sorted keys or //lint:allow simdeterminism with a reason",
}

// RunProgram reports determinism violations in targeted packages and in
// functions reachable from the root entry points. It reads the effect
// scanner's facts (effects.go) rather than walking bodies itself; only the
// import check and the package-level var initializers are its own.
func (s *SimDeterminism) RunProgram(prog *Program) []Finding {
	var out []Finding
	report := func(fe *funcEffects, ctx string) {
		for _, imp := range fe.impurities {
			if hint, ok := determinismHints[imp.source]; ok {
				out = append(out, Finding{Pos: imp.pos, Pass: s.Name(), Msg: imp.detail + ctx + "; " + hint})
			}
		}
	}
	modPrefix := prog.modulePrefix()
	for _, p := range prog.Pkgs {
		if !s.targets(p.Path) {
			continue
		}
		for _, f := range p.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err == nil && (path == "math/rand" || path == "math/rand/v2") {
					out = append(out, p.finding(s.Name(), imp,
						"import %s is nondeterministic across runs; use wormsim/internal/rng streams", path))
				}
			}
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					report(scanEffects(prog, p, gd, modPrefix), "")
				}
			}
		}
	}

	var roots []*types.Func
	for _, ref := range s.Roots {
		target := prog.Package(ref.Pkg)
		if target == nil {
			continue // single-package run: this root's package is not loaded
		}
		root := prog.FindFunc(ref.Pkg, ref.Func)
		if root == nil {
			out = append(out, target.finding(s.Name(), target.Files[0],
				"determinism root %s not found in %s; update the pass configuration", ref.Func, ref.Pkg))
			continue
		}
		roots = append(roots, root)
	}
	reach := prog.Graph().ReachableFrom(roots...)
	effects := prog.effectsIndex()
	for _, e := range prog.funcDecls() {
		switch {
		case s.targets(e.Pkg.Path):
			report(effects[e.Fn], "")
		case reach.Set[e.Fn]:
			report(effects[e.Fn], " (reachable via "+reach.Chain(e.Fn, e.Pkg)+")")
		}
	}
	return out
}

func (s *SimDeterminism) targets(path string) bool {
	for _, t := range s.Targets {
		if path == t {
			return true
		}
	}
	return false
}
