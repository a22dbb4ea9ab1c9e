package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CallGraph is the program's static call graph. An edge fn → callee exists
// when fn's body (including nested function literals, which run when fn
// runs them) references callee directly, or makes an interface or
// method-value call that conservatively devirtualizes to callee.
//
// Devirtualization is by method-set matching over the loaded module: a call
// through interface method I.M gains an edge to T.M for every named type T
// in the program whose method set (value or pointer) implements I. Calls
// through plain function values (fields, parameters) have no static callee
// and are not followed. Stdlib-mediated callbacks (sort.Slice invoking its less function) are
// likewise not followed, but the function literal itself is still scanned
// as part of its enclosing function.
type CallGraph struct {
	prog *Program
	// Out maps each declared function to its callees, deduplicated, in
	// first-reference source order (deterministic).
	Out map[*types.Func][]*types.Func
}

type devirtKey struct {
	iface *types.Interface
	name  string
}

// buildCallGraph walks every declared body once, resolving direct
// references and devirtualizing interface methods.
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{prog: prog, Out: make(map[*types.Func][]*types.Func, len(prog.decls))}
	devirt := make(map[devirtKey][]*types.Func)
	for _, e := range prog.funcDecls() {
		g.Out[e.Fn] = g.collectEdges(e.Pkg, e.Decl.Body, devirt)
	}
	return g
}

// collectEdges gathers the callees referenced by one body in source order.
func (g *CallGraph) collectEdges(p *Package, body *ast.BlockStmt, devirt map[devirtKey][]*types.Func) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		out = append(out, fn)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		tf, ok := p.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := tf.Type().(*types.Signature)
		if !ok {
			return true
		}
		if recv := sig.Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				// Interface method (called or taken as a method value):
				// conservatively add every module implementation.
				for _, impl := range g.implementers(iface, tf, devirt) {
					add(impl)
				}
				return true
			}
		}
		// A direct reference: a static call, or a function/method value
		// that may be invoked later — either way its body is reachable.
		if _, ok := g.prog.decls[tf]; !ok {
			tf = tf.Origin() // instantiated generic → its declaration
		}
		if _, ok := g.prog.decls[tf]; ok {
			add(tf)
		}
		return true
	})
	return out
}

// implementers returns the declared concrete methods that a call to the
// interface method m may dispatch to, matched over every named type in the
// program whose value or pointer method set implements the interface.
func (g *CallGraph) implementers(iface *types.Interface, m *types.Func, cache map[devirtKey][]*types.Func) []*types.Func {
	key := devirtKey{iface: iface, name: m.Name()}
	if impls, ok := cache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, p := range g.prog.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if types.IsInterface(T) {
				continue
			}
			if !types.Implements(T, iface) && !types.Implements(types.NewPointer(T), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), true, m.Pkg(), m.Name())
			impl, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if _, ok := g.prog.decls[impl]; !ok {
				impl = impl.Origin()
			}
			if _, ok := g.prog.decls[impl]; ok {
				impls = append(impls, impl)
			}
		}
	}
	cache[key] = impls
	return impls
}

// Reach is the result of a forward reachability query: the reached set plus
// the BFS tree that produced it, for "how did we get here" diagnostics.
type Reach struct {
	prog *Program
	// Set holds every function reachable from the roots (roots included).
	Set map[*types.Func]bool
	// parent maps each reached function to its BFS predecessor (roots map
	// to nil), giving one shortest witness chain per function.
	parent map[*types.Func]*types.Func
}

// ReachableFrom runs the shared forward dataflow: breadth-first propagation
// of the "reachable" fact from the roots over the call graph. Deterministic:
// edges are in source order and the queue is FIFO.
func (g *CallGraph) ReachableFrom(roots ...*types.Func) *Reach {
	r := &Reach{
		prog:   g.prog,
		Set:    make(map[*types.Func]bool),
		parent: make(map[*types.Func]*types.Func),
	}
	var queue []*types.Func
	for _, root := range roots {
		if root == nil || r.Set[root] {
			continue
		}
		r.Set[root] = true
		r.parent[root] = nil
		queue = append(queue, root)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range g.Out[fn] {
			if r.Set[callee] {
				continue
			}
			r.Set[callee] = true
			r.parent[callee] = fn
			queue = append(queue, callee)
		}
	}
	return r
}

// Chain renders the witness call chain from a root to fn, e.g.
// "(*Network).Step → transfer → routing.(ECube).Candidates". Names in
// anchor's package print unqualified.
func (r *Reach) Chain(fn *types.Func, anchor *Package) string {
	var rev []*types.Func
	for f := fn; f != nil; f = r.parent[f] {
		rev = append(rev, f)
		if r.parent[f] == nil {
			break
		}
	}
	parts := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		parts = append(parts, r.prog.funcDisplayName(rev[i], anchor))
	}
	return strings.Join(parts, " → ")
}
