package lint

// The dataflow layer names writes to engine state: it resolves an assignment
// target — through indexing, dereference and local aliases of receiver
// fields (refs := n.wormRefs[:0]) — to the dotted chain of struct fields
// under the engine value ("owners", "window.Cycles"). The conservation pass
// balances resource counters and finds state sinks over these names.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EngineModel teaches the dataflow layer how to read an engine package. The
// tables are in terms of source identifiers so the model stays declarative;
// NewConservation builds the instance for wormsim/internal/network, and
// fixtures build their own.
type EngineModel struct {
	// TargetPkg is the import path of the package under analysis.
	TargetPkg string

	// CallPrefix maps qualified receiver types ("path/to/pkg.Type", works
	// for interfaces too) to an event prefix: a method call on such a value
	// is labeled "<prefix>.<Method>". Unmapped foreign receivers are
	// ignored (fmt, strings, ...).
	CallPrefix map[string]string
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// canonicalWrite resolves an assignment target to the state component it
// mutates: the dotted chain of struct fields under the receiver (through
// indexing, dereference and local aliases). Plain locals resolve to "" —
// scratch writes are not state. A chain rooted in a type from outside the
// target package is prefixed with that type's name ("Message.FirstAlloc").
func canonicalWrite(m *EngineModel, pkg *Package, aliases map[types.Object][]string, e ast.Expr) string {
	chain, owner := fieldChain(pkg, aliases, e)
	if len(chain) == 0 {
		return ""
	}
	if owner != nil && owner.Obj().Pkg() != nil && owner.Obj().Pkg().Path() != m.TargetPkg {
		chain = append([]string{owner.Obj().Name()}, chain...)
	}
	return strings.Join(chain, ".")
}

// fieldChain collects the struct-field selection chain of e, outermost
// field last, resolving the root ident through aliases. owner is the named
// type the deepest field is selected from (nil when the root carries an
// alias, whose chain is already receiver-rooted).
func fieldChain(pkg *Package, aliases map[types.Object][]string, e ast.Expr) (chain []string, owner *types.Named) {
	var deepest *ast.SelectorExpr
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return nil, nil
			}
			e = t.X
		case *ast.SelectorExpr:
			v, ok := pkg.Info.Uses[t.Sel].(*types.Var)
			if !ok || !v.IsField() {
				return nil, nil
			}
			chain = append([]string{t.Sel.Name}, chain...)
			deepest = t
			e = t.X
		case *ast.Ident:
			obj := pkg.Info.Uses[t]
			if obj == nil {
				obj = pkg.Info.Defs[t]
			}
			if pre, ok := aliases[obj]; ok {
				return append(append([]string{}, pre...), chain...), nil
			}
			if deepest != nil {
				if sel := pkg.Info.Selections[deepest]; sel != nil {
					owner = namedOf(sel.Recv())
				}
			}
			return chain, owner
		default:
			return nil, nil
		}
	}
}

// collectFieldAliases maps locals that alias receiver state — refs :=
// n.wormRefs[:0], byClass := n.window.FlitMovesByClass — to the field chain
// they stand for, so writes through them resolve like direct field writes. A local reassigned to
// a different chain or to an arbitrary expression is poisoned; reassignment
// by self-append (refs = append(refs, ...)) keeps the alias, matching the
// engine's scratch-reuse idiom. Two rounds resolve alias-through-alias.
func collectFieldAliases(pkg *Package, fd *ast.FuncDecl) map[types.Object][]string {
	aliases := make(map[types.Object][]string)
	poisoned := make(map[types.Object]bool)
	for round := 0; round < 2; round++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj == nil || poisoned[obj] {
					continue
				}
				if isSelfAppend(pkg, as.Rhs[i], obj) {
					continue
				}
				chain, _ := fieldChain(pkg, aliases, as.Rhs[i])
				if len(chain) == 0 {
					poisoned[obj] = true
					delete(aliases, obj)
					continue
				}
				if old, ok := aliases[obj]; ok && strings.Join(old, ".") != strings.Join(chain, ".") {
					poisoned[obj] = true
					delete(aliases, obj)
					continue
				}
				aliases[obj] = chain
			}
			return true
		})
	}
	return aliases
}

// isSelfAppend reports whether e is append(x, ...) growing x itself.
func isSelfAppend(pkg *Package, e ast.Expr, x types.Object) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fun, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	arg, ok := unparen(call.Args[0]).(*ast.Ident)
	return ok && pkg.Info.Uses[arg] == x
}
