package lint

import (
	"go/ast"
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
//   - calling time.Now, time.Since or time.Until (wall-clock reads; inject
//     a clock like telemetry.Progress does when one is genuinely needed),
//   - ranging over a map (iteration order is randomized per run; iterate a
//     sorted key slice instead),
//
// in two scopes: everywhere inside the target packages (the declared
// simulation core), and — via the program call graph — inside any function
// in any package reachable from the root entry points (the engine's cycle
// step, and the observatory's result-serving handlers), including through
// devirtualized interface calls. A helper in an untargeted package becomes
// part of the determinism contract the moment a root can reach it.
//
// Intentional uses — order-independent reductions over maps, telemetry
// wall-clock reads behind an injected clock — are annotated in place with
// //lint:allow simdeterminism and a reason.
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
			{Pkg: observatory, Func: "(*API).handleRuns"},
			{Pkg: observatory, Func: "(*API).handleRun"},
			{Pkg: observatory, Func: "(*API).handleCompare"},
			{Pkg: observatory, Func: "(*API).handleCompareSVG"},
		},
	}
}

// Name returns "simdeterminism".
func (*SimDeterminism) Name() string { return "simdeterminism" }

// Doc describes the pass.
func (*SimDeterminism) Doc() string {
	return "forbid math/rand, wall-clock reads and map iteration in the simulation core and everything the engine reaches"
}

// RunProgram reports determinism violations in targeted packages and in
// functions reachable from the root entry points.
func (s *SimDeterminism) RunProgram(prog *Program) []Finding {
	var out []Finding
	for _, p := range prog.Pkgs {
		if s.targets(p.Path) {
			out = append(out, s.checkPackage(p)...)
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
	if len(roots) == 0 {
		return out
	}
	reach := prog.Graph().ReachableFrom(roots...)
	for _, p := range prog.Pkgs {
		if s.targets(p.Path) {
			continue // already checked in full above
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || !reach.Set[fn] {
					continue
				}
				chain := reach.Chain(fn, p)
				out = append(out, s.checkBody(p, fd.Body, " (reachable via "+chain+")")...)
			}
		}
	}
	return out
}

// checkPackage applies the full-package scope: imports plus every body.
func (s *SimDeterminism) checkPackage(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, p.finding(s.Name(), imp,
					"import %s is nondeterministic across runs; use wormsim/internal/rng streams", path))
			}
		}
		out = append(out, s.checkBody(p, f, "")...)
	}
	return out
}

// checkBody flags wall-clock reads, map iteration and math/rand calls in
// one subtree; ctx annotates reachability-scope findings with the witness
// call chain.
func (s *SimDeterminism) checkBody(p *Package, root ast.Node, ctx string) []Finding {
	var out []Finding
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := pkgFuncCall(p, n, "time"); ok {
				switch name {
				case "Now", "Since", "Until":
					out = append(out, p.finding(s.Name(), n,
						"time.%s reads the wall clock%s; inject a clock or //lint:allow simdeterminism with a reason", name, ctx))
				}
			}
			if name, ok := pkgFuncCall(p, n, "math/rand"); ok {
				out = append(out, p.finding(s.Name(), n,
					"math/rand.%s is nondeterministic across runs%s; use wormsim/internal/rng streams", name, ctx))
			} else if name, ok := pkgFuncCall(p, n, "math/rand/v2"); ok {
				out = append(out, p.finding(s.Name(), n,
					"math/rand/v2.%s is nondeterministic across runs%s; use wormsim/internal/rng streams", name, ctx))
			}
		case *ast.RangeStmt:
			t := p.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				out = append(out, p.finding(s.Name(), n,
					"iteration over map %s has randomized order%s; iterate sorted keys or //lint:allow simdeterminism with a reason", t.String(), ctx))
			}
		}
		return true
	})
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
