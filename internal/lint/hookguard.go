package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HookType identifies one observability hook receiver type whose call sites
// must be nil-guarded.
type HookType struct {
	// TypePath/TypeName identify the hook receiver type.
	TypePath string
	TypeName string
	// NilSafe lists methods that check their own receiver and are therefore
	// safe to call unguarded.
	NilSafe map[string]bool
}

// HookGuard enforces the observability contract "a disabled hook is one
// branch per call site, never a panic": each registered hook pointer
// (telemetry collector, phase timer, observatory publisher) is nil whenever
// its feature is off, so every call site must be dominated by a nil guard —
// either an enclosing `if c != nil { ... }` (conjunctions count) or an
// earlier `if c == nil { return }` in the same function. Methods that check
// their own receiver are exempt per type, as is each type's defining
// package.
type HookGuard struct {
	Types []HookType
}

// NewHookGuard guards wormsim's observability hook types: the telemetry
// collector and phase-profiling timer the engine calls every cycle, the
// profiler handle itself, and the observatory publisher the CLIs feed.
func NewHookGuard() *HookGuard {
	return &HookGuard{Types: []HookType{
		{
			TypePath: "wormsim/internal/telemetry",
			TypeName: "Collector",
			NilSafe:  map[string]bool{"Tracing": true, "Recorded": true, "Events": true, "LastEvents": true},
		},
		{
			TypePath: "wormsim/internal/telemetry",
			TypeName: "PhaseTimer",
		},
		{
			TypePath: "wormsim/internal/telemetry",
			TypeName: "PhaseProfiler",
			NilSafe:  map[string]bool{"Timer": true},
		},
		{
			TypePath: "wormsim/internal/observatory",
			TypeName: "Publisher",
		},
		{
			// The congestion forensics analyzer is nil whenever forensics is
			// off; the engine touches it on the inject/allocate hot path.
			TypePath: "wormsim/internal/forensics",
			TypeName: "Analyzer",
		},
	}}
}

// Name returns "hookguard".
func (*HookGuard) Name() string { return "hookguard" }

// Doc describes the pass.
func (h *HookGuard) Doc() string {
	return "require telemetry/observatory hook call sites to be nil-guarded"
}

// Run reports unguarded hook calls.
func (h *HookGuard) Run(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			ht := h.hookType(p, sel.X)
			if ht == nil || ht.TypePath == p.Path {
				return // not a hook, or the type's own package
			}
			if ht.NilSafe[sel.Sel.Name] {
				return
			}
			recv := types.ExprString(sel.X)
			if guardedByIf(stack, call, recv) || guardedByEarlyExit(p, stack, call, recv) {
				return
			}
			out = append(out, p.finding(h.Name(), call,
				"%s hook %s.%s is not nil-guarded; wrap it in `if %s != nil { ... }`",
				ht.TypeName, recv, sel.Sel.Name, recv))
		})
	}
	return out
}

// hookType returns the registered hook type e points at, if any.
func (h *HookGuard) hookType(p *Package, e ast.Expr) *HookType {
	t := p.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	for i := range h.Types {
		ht := &h.Types[i]
		if obj.Name() == ht.TypeName && obj.Pkg().Path() == ht.TypePath {
			return ht
		}
	}
	return nil
}

// guardedByIf reports whether some enclosing if-statement's condition
// asserts recv != nil with the call inside its then-branch.
func guardedByIf(stack []ast.Node, call *ast.CallExpr, recv string) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		inBody := call.Pos() >= ifs.Body.Pos() && call.End() <= ifs.Body.End()
		if inBody && condAssertsNonNil(ifs.Cond, recv) {
			return true
		}
	}
	return false
}

// condAssertsNonNil reports whether cond (or any && conjunct of it)
// compares recv against nil with !=.
func condAssertsNonNil(cond ast.Expr, recv string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condAssertsNonNil(c.X, recv)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			return condAssertsNonNil(c.X, recv) || condAssertsNonNil(c.Y, recv)
		case token.NEQ:
			return isNilCheck(c.X, c.Y, recv) || isNilCheck(c.Y, c.X, recv)
		}
	}
	return false
}

func isNilCheck(x, y ast.Expr, recv string) bool {
	id, ok := y.(*ast.Ident)
	return ok && id.Name == "nil" && types.ExprString(x) == recv
}

// guardedByEarlyExit reports whether the enclosing function contains an
// earlier `if recv == nil { return/continue/panic }` guard.
func guardedByEarlyExit(p *Package, stack []ast.Node, call *ast.CallExpr, recv string) bool {
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			body = fn.Body
		case *ast.FuncDecl:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	guarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.End() > call.Pos() || len(ifs.Body.List) == 0 {
			return true
		}
		bin, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			return true
		}
		if !isNilCheck(bin.X, bin.Y, recv) && !isNilCheck(bin.Y, bin.X, recv) {
			return true
		}
		switch last := ifs.Body.List[len(ifs.Body.List)-1].(type) {
		case *ast.ReturnStmt:
			guarded = true
		case *ast.BranchStmt:
			guarded = true
		case *ast.ExprStmt:
			if c, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "panic" {
					guarded = true
				}
			}
		}
		return true
	})
	return guarded
}
