package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc machine-enforces the engine's zero-alloc steady-state contract:
// inside the per-cycle call graph — every function in the program reachable
// from the engine's cycle entry point, across package boundaries and
// through conservatively devirtualized interface calls (routing algorithms,
// selection policies, workloads) — the pass forbids
//
//   - make(map[...]...), and
//   - map composite literals (both allocate, and maps additionally regrow
//     and rehash unpredictably; use a generation-counter scratch array or a
//     reusable slice keyed by dense indices), and
//   - function literals (a closure that captures variables allocates its
//     environment every evaluation; hoist it to a field or a method).
//
// Calls through plain function values (telemetry hooks, OnDeliver) still
// have no static callee and are the graph's boundary. Setup-only
// allocations that genuinely belong on the hot path's source (a scratch
// table rebuilt only on topology change, a terminal error report) are
// annotated in place with //lint:allow hotalloc and a reason.
type HotAlloc struct {
	// TargetPkg is the import path holding the entry points.
	TargetPkg string
	// Root names the cycle entry point, "Func" or "(*Recv).Func".
	Root string
}

// NewHotAlloc guards the engine: everything network.(*Network).Step reaches
// runs once per simulated cycle (TestSteadyStateZeroAlloc pins the same
// contract dynamically).
func NewHotAlloc() *HotAlloc {
	return &HotAlloc{
		TargetPkg: "wormsim/internal/network",
		Root:      "(*Network).Step",
	}
}

// Name returns "hotalloc".
func (*HotAlloc) Name() string { return "hotalloc" }

// Doc describes the pass.
func (*HotAlloc) Doc() string {
	return "forbid map allocation and closures in the engine's whole-program per-cycle call graph"
}

// RunProgram reports hot-path allocation constructs in every function
// reachable from the root, wherever it lives.
func (h *HotAlloc) RunProgram(prog *Program) []Finding {
	target := prog.Package(h.TargetPkg)
	if target == nil {
		// The entry-point package is not part of this load (e.g. wormlint
		// pointed at a single unrelated package); nothing to check.
		return nil
	}
	root := prog.FindFunc(h.TargetPkg, h.Root)
	if root == nil {
		// A renamed entry point must not silently disarm the gate.
		return []Finding{target.finding(h.Name(), target.Files[0],
			"hot-path root %s not found in %s; update the pass configuration", h.Root, h.TargetPkg)}
	}

	reach := prog.Graph().ReachableFrom(root)
	var out []Finding
	forEachReachableDecl(prog, reach, func(p *Package, fd *ast.FuncDecl, _ *types.Func) {
		out = append(out, h.checkBody(p, fd, reach)...)
	})
	return out
}

// checkBody flags the allocation constructs inside one reachable function.
func (h *HotAlloc) checkBody(p *Package, fd *ast.FuncDecl, reach *Reach) []Finding {
	fn := p.Info.Defs[fd.Name].(*types.Func)
	chain := reach.Chain(fn, p)
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && isMapType(p, n.Args[0]) {
					out = append(out, p.finding(h.Name(), n,
						"make(map) on the per-cycle path %s; use a generation-counter scratch or //lint:allow hotalloc with a reason", chain))
				}
			}
		case *ast.CompositeLit:
			if isMapType(p, n) {
				out = append(out, p.finding(h.Name(), n,
					"map literal on the per-cycle path %s; use a generation-counter scratch or //lint:allow hotalloc with a reason", chain))
			}
		case *ast.FuncLit:
			out = append(out, p.finding(h.Name(), n,
				"closure on the per-cycle path %s allocates its environment; hoist it to a field or method, or //lint:allow hotalloc with a reason", chain))
		}
		return true
	})
	return out
}
