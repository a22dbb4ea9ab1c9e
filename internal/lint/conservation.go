package lint

// Conservation proves flit/credit balance over the engine call graph: every
// resource the engine acquires it must also release. Quantities come in two
// shapes. A *counter* quantity names a state component (the field chain the
// dataflow layer resolves a write to): the reachable graph of each root must
// contain
// both an increment and a decrement, or the counter only ever moves one way
// and the invariant it tracks cannot hold. An *acquire/release* quantity
// names a call pair (pool.Get/pool.Put, limiter.Admit/limiter.Release):
// both ends must appear on the graph, and for leak-checked quantities every
// acquire's result must reach a release or a state sink on all paths out of
// the acquiring function — an early `continue` that forgets to return a
// message to the pool is exactly the bug this catches.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ConservedQuantity describes one balanced resource.
type ConservedQuantity struct {
	Name string
	// Counter is a state component (dataflow.go) balanced by ++/+= and --/-=.
	Counter string
	// Acquire/Release name a paired call-event couple.
	Acquire, Release string
	// LeakCheck additionally requires each acquire's result to reach a
	// release or a state sink on every path of the acquiring function.
	LeakCheck bool
}

// Conservation is the pass. Construct with NewConservation, or populate the
// fields for fixture models.
type Conservation struct {
	Model      *EngineModel
	Roots      []string // FindFunc specs in Model.TargetPkg, audited per root
	Quantities []ConservedQuantity
}

// NewConservation returns the pass configured for wormsim's engine: the
// step root, with the VC-ownership, injection-port, in-flight, message-pool
// and congestion-credit quantities.
func NewConservation() *Conservation {
	return &Conservation{
		Model: &EngineModel{
			TargetPkg: "wormsim/internal/network",
			CallPrefix: map[string]string{
				"wormsim/internal/message.Pool":       "pool",
				"wormsim/internal/congestion.Limiter": "limiter",
			},
		},
		Roots: []string{"(*Network).Step"},
		Quantities: []ConservedQuantity{
			{Name: "vc-ownership", Counter: "owners"},
			{Name: "injection-ports", Counter: "injecting"},
			{Name: "in-flight", Counter: "inFlight"},
			{Name: "messages", Acquire: "pool.Get", Release: "pool.Put", LeakCheck: true},
			{Name: "congestion-credit", Acquire: "limiter.Admit", Release: "limiter.Release"},
		},
	}
}

// Name returns "conservation".
func (*Conservation) Name() string { return "conservation" }

// Doc describes the pass.
func (*Conservation) Doc() string {
	return "engine resources must balance: counters move both ways and every pool acquire reaches a release on all paths"
}

// ledgerOp is one movement of a conserved quantity.
type ledgerOp struct {
	quantity string
	inc      bool
	pos      token.Position
}

// RunProgram audits every root's reachable graph.
func (c *Conservation) RunProgram(prog *Program) []Finding {
	pkg := prog.Package(c.Model.TargetPkg)
	if pkg == nil {
		return nil
	}
	var findings []Finding
	g := prog.Graph()
	for _, rootSpec := range c.Roots {
		root := prog.FindFunc(c.Model.TargetPkg, rootSpec)
		if root == nil {
			findings = append(findings, Finding{
				Pos:  pkg.Fset.Position(pkg.Files[0].Pos()),
				Pass: c.Name(),
				Msg:  fmt.Sprintf("conservation root %s not found in %s; update the pass configuration", rootSpec, c.Model.TargetPkg),
			})
			continue
		}
		reach := g.ReachableFrom(root)
		incs := make(map[string][]token.Position)
		decs := make(map[string][]token.Position)
		forEachReachableDecl(prog, reach, func(q *Package, fd *ast.FuncDecl, fn *types.Func) {
			if q.Path != c.Model.TargetPkg {
				return
			}
			for _, op := range c.scanLedger(q, fd) {
				if op.inc {
					incs[op.quantity] = append(incs[op.quantity], op.pos)
				} else {
					decs[op.quantity] = append(decs[op.quantity], op.pos)
				}
			}
			findings = append(findings, c.checkLeaks(q, fd)...)
		})
		for _, quant := range c.Quantities {
			in, de := incs[quant.Name], decs[quant.Name]
			switch {
			case len(in) > 0 && len(de) == 0:
				findings = append(findings, Finding{
					Pos:  in[0],
					Pass: c.Name(),
					Msg: fmt.Sprintf("%s acquired here is never released on the %s graph (%d acquire site(s), no release)",
						quant.Name, rootSpec, len(in)),
				})
			case len(de) > 0 && len(in) == 0:
				findings = append(findings, Finding{
					Pos:  de[0],
					Pass: c.Name(),
					Msg: fmt.Sprintf("%s released here is never acquired on the %s graph (%d release site(s), no acquire)",
						quant.Name, rootSpec, len(de)),
				})
			}
		}
	}
	return findings
}

// scanLedger collects every movement of a configured quantity in fd:
// ++/--/+=/-= on counter components, and acquire/release calls.
func (c *Conservation) scanLedger(pkg *Package, fd *ast.FuncDecl) []ledgerOp {
	var ops []ledgerOp
	aliases := collectFieldAliases(pkg, fd)
	byCounter := make(map[string]string) // state component -> quantity
	byCall := make(map[string]struct {
		quantity string
		inc      bool
	})
	for _, q := range c.Quantities {
		if q.Counter != "" {
			byCounter[q.Counter] = q.Name
		}
		if q.Acquire != "" {
			byCall[q.Acquire] = struct {
				quantity string
				inc      bool
			}{q.Name, true}
			byCall[q.Release] = struct {
				quantity string
				inc      bool
			}{q.Name, false}
		}
	}
	record := func(target ast.Expr, inc bool, pos token.Pos) {
		canon := canonicalWrite(c.Model, pkg, aliases, target)
		if quant, ok := byCounter[canon]; ok {
			ops = append(ops, ledgerOp{quantity: quant, inc: inc, pos: pkg.Fset.Position(pos)})
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.IncDecStmt:
			record(t.X, t.Tok == token.INC, t.Pos())
		case *ast.AssignStmt:
			if t.Tok == token.ADD_ASSIGN || t.Tok == token.SUB_ASSIGN {
				for _, lhs := range t.Lhs {
					record(lhs, t.Tok == token.ADD_ASSIGN, t.Pos())
				}
			}
		case *ast.CallExpr:
			if label := c.callLabel(pkg, t); label != "" {
				if mv, ok := byCall[label]; ok {
					ops = append(ops, ledgerOp{quantity: mv.quantity, inc: mv.inc, pos: pkg.Fset.Position(t.Pos())})
				}
			}
		}
		return true
	})
	return ops
}

// callLabel labels a method call on a foreign receiver the model names
// (acquire/release pairs live on pool and limiter values).
func (c *Conservation) callLabel(pkg *Package, call *ast.CallExpr) string {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	prefix, ok := c.Model.CallPrefix[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
	if !ok {
		return ""
	}
	return prefix + "." + fn.Name()
}

// checkLeaks enforces the path discipline for leak-checked quantities: a
// value produced by an acquire call must reach a release or a state sink —
// a store into engine state, or being handed to an intra-package callee —
// both on the straight-line remainder of its block and inside any early-exit
// branch between the acquire and the sink.
func (c *Conservation) checkLeaks(pkg *Package, fd *ast.FuncDecl) []Finding {
	leakCalls := make(map[string]string) // call label -> quantity name
	releases := make(map[string]bool)    // release labels of leak-checked quantities
	for _, q := range c.Quantities {
		if q.LeakCheck && q.Acquire != "" {
			leakCalls[q.Acquire] = q.Name
			releases[q.Release] = true
		}
	}
	if len(leakCalls) == 0 {
		return nil
	}
	aliases := collectFieldAliases(pkg, fd)
	var findings []Finding
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for i, stmt := range stmts {
			if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					if quant, isAcq := leakCalls[c.callLabel(pkg, call)]; isAcq {
						if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							obj := pkg.Info.Defs[id]
							if obj == nil {
								obj = pkg.Info.Uses[id]
							}
							if obj != nil && !c.resolvedAfter(pkg, aliases, stmts[i+1:], obj, releases) {
								findings = append(findings, Finding{
									Pos:  pkg.Fset.Position(call.Pos()),
									Pass: c.Name(),
									Msg: fmt.Sprintf("%s acquired here can leak: not released or stored into engine state on every path (early exits between acquire and sink must release)",
										quant),
								})
							}
						}
					}
				}
			}
			// Recurse into nested bodies for further acquires.
			switch t := stmt.(type) {
			case *ast.BlockStmt:
				walk(t.List)
			case *ast.IfStmt:
				walk(t.Body.List)
				if els, ok := t.Else.(*ast.BlockStmt); ok {
					walk(els.List)
				}
			case *ast.ForStmt:
				walk(t.Body.List)
			case *ast.RangeStmt:
				walk(t.Body.List)
			case *ast.SwitchStmt:
				for _, cl := range t.Body.List {
					if cc, ok := cl.(*ast.CaseClause); ok {
						walk(cc.Body)
					}
				}
			}
		}
	}
	walk(fd.Body.List)
	return findings
}

// resolvedAfter scans the statements following an acquire: the value is
// resolved when a sink appears on the straight-line remainder, and every
// early-exit branch (an if whose body ends in return/continue/break)
// encountered before then must sink it itself.
func (c *Conservation) resolvedAfter(pkg *Package, aliases map[types.Object][]string, rest []ast.Stmt, obj types.Object, releases map[string]bool) bool {
	for _, stmt := range rest {
		if ifs, ok := stmt.(*ast.IfStmt); ok && terminates(ifs.Body) {
			if !c.containsSink(pkg, aliases, ifs.Body, obj, releases) {
				return false
			}
			continue
		}
		if c.containsSink(pkg, aliases, stmt, obj, releases) {
			return true
		}
	}
	return false
}

// terminates reports whether a block's last statement exits the normal
// flow.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch t := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return t.Tok == token.CONTINUE || t.Tok == token.BREAK || t.Tok == token.GOTO
	}
	return false
}

// containsSink reports whether n releases obj or stores it into engine
// state: a release call taking obj, obj passed to an intra-package callee,
// or an assignment of obj whose target resolves to a state component.
func (c *Conservation) containsSink(pkg *Package, aliases map[types.Object][]string, n ast.Node, obj types.Object, releases map[string]bool) bool {
	usesObj := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && pkg.Info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return found
	}
	sunk := false
	ast.Inspect(n, func(m ast.Node) bool {
		if sunk {
			return false
		}
		switch t := m.(type) {
		case *ast.CallExpr:
			argUses := false
			for _, arg := range t.Args {
				if usesObj(arg) {
					argUses = true
					break
				}
			}
			if !argUses {
				return true
			}
			label := c.callLabel(pkg, t)
			if releases[label] {
				sunk = true
				return false
			}
			if fn := calleeFunc(pkg, t); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == c.Model.TargetPkg {
				sunk = true
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range t.Rhs {
				if i < len(t.Lhs) && usesObj(rhs) &&
					canonicalWrite(c.Model, pkg, aliases, t.Lhs[i]) != "" {
					sunk = true
					return false
				}
			}
		}
		return true
	})
	return sunk
}
