// Package lint is wormsim's domain-specific static-analysis suite: a small
// analyzer framework (go/ast + go/types, stdlib only — see Loader) with
// passes that machine-enforce the invariants the paper's methodology and
// the simulator's design rest on.
//
// Passes come in two shapes. A PackagePass inspects one package at a time
// (syntactic and local-type rules). A ProgramPass sees the whole loaded
// module at once through a Program: a cross-package static call graph with
// conservative devirtualization of interface and method-value calls, plus a
// shared reaching-facts dataflow driver (see callgraph.go). The hot-path
// passes are program passes, so "no allocation reachable from Step" holds
// across package boundaries, not just inside internal/network.
//
// The passes:
//
//   - simdeterminism — the simulation core must be bit-reproducible from
//     its seeds: no math/rand, no wall clock, no iteration over maps —
//     enforced per target package and on everything reachable from the
//     engine and result-serving entry points, across packages.
//   - purity — the run entry points (core.Run, RunCached, Sweep,
//     SweepReplicated) must be pure functions of their Config: an effect
//     inference classifies every reachable function pure / read-only /
//     impure, and every impurity is either fixed or an annotated exemption.
//     CertifyPurity turns the result into machine-readable certificates
//     (cmd/wormlint -certify-purity) — the theorem the run store's
//     cache-hit contract rests on.
//   - hotalloc — the engine's per-cycle call graph must stay allocation
//     free: no make(map), map literals or closures reachable from Step,
//     through cross-package calls and devirtualized interface calls.
//   - hookguard — telemetry hook call sites must be nil-guarded so that
//     disabled telemetry stays a branch, never a panic.
//   - errfmt — error strings follow Go conventions and error operands are
//     wrapped with %w.
//   - lintdirective — //lint:allow directives must name registered passes
//     (stale suppressions rot).
//   - unusedallow — an //lint:allow directive that no longer suppresses
//     any finding is itself a finding.
//
// That is the whole suite, on purpose: it covers what only a
// wormsim-specific analysis can see. Lock copying, atomic and mutex
// discipline and loop capture are go vet's and the race detector's job, and
// the engine's conservation ledgers are balanced at run time, every cycle,
// by the network package's invariant checker (DESIGN.md §5).
//
// A finding can be suppressed where the flagged use is intentional by
// annotating the line (or the line above it) with a directive:
//
//	//lint:allow <pass>[,<pass>...] [reason]
//
// Findings print as "file:line: [pass] message"; cmd/wormlint exits
// non-zero if any survive, which makes the suite a CI gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the pass that produced it and the
// message.
type Finding struct {
	Pos  token.Position
	Pass string
	Msg  string
}

// String renders the finding in the canonical "file:line: [pass] message"
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pass, f.Msg)
}

// Pass is the common surface of every analyzer: an identity for -passes
// selection and directives.
type Pass interface {
	Name() string
	// Doc is a one-line description for -list.
	Doc() string
}

// PackagePass is an analyzer that inspects one package at a time.
type PackagePass interface {
	Pass
	Run(p *Package) []Finding
}

// ProgramPass is an analyzer that needs the whole loaded module: the
// cross-package call graph, devirtualization, or directive indexes.
type ProgramPass interface {
	Pass
	RunProgram(prog *Program) []Finding
}

// AfterPass is an analyzer that runs after every other selected pass in the
// same Run call, so it can observe which //lint:allow directives the run
// actually exercised. unusedallow is the only implementation: a directive is
// only provably stale relative to the passes that ran, so ran carries the
// names of this run's passes.
type AfterPass interface {
	Pass
	RunAfter(prog *Program, ran map[string]bool) []Finding
}

// DefaultPasses returns the full suite in reporting order. The lintdirective
// pass always knows every registered name, even when the caller later runs a
// subset, so an //lint:allow for a deselected pass is never misreported.
func DefaultPasses() []Pass {
	passes := []Pass{
		NewSimDeterminism(),
		NewPurity(),
		NewHotAlloc(),
		NewHookGuard(),
		ErrFmt{},
	}
	names := make([]string, 0, len(passes)+2)
	for _, p := range passes {
		names = append(names, p.Name())
	}
	names = append(names, "lintdirective", "unusedallow")
	return append(passes, NewLintDirective(names), NewUnusedAllow(names))
}

// PassNames lists every registered pass name in reporting order.
func PassNames() []string {
	var names []string
	for _, p := range DefaultPasses() {
		names = append(names, p.Name())
	}
	return names
}

// SelectPasses resolves a comma-separated subset of pass names (as given to
// cmd/wormlint -passes) against the registry, preserving reporting order.
func SelectPasses(spec string) ([]Pass, error) {
	want := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	all := DefaultPasses()
	var out []Pass
	for _, p := range all {
		if want[p.Name()] {
			out = append(out, p)
			delete(want, p.Name())
		}
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("lint: unknown pass(es) %s (run -list for the registry)", strings.Join(unknown, ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: -passes selected nothing")
	}
	return out, nil
}

// Run applies every pass to the loaded packages, drops suppressed findings,
// and returns the rest sorted by file, line, pass and message. Program
// passes see all packages at once through a Program; package passes run per
// package.
func Run(pkgs []*Package, passes []Pass) []Finding {
	return RunOn(NewProgram(pkgs), passes)
}

// RunOn is Run against an already-built Program, so a caller that needs the
// Program for more than one job (findings plus certificate emission, as
// cmd/wormlint does) loads and type-checks the module exactly once.
func RunOn(prog *Program, passes []Pass) []Finding {
	pkgs := prog.Pkgs
	var out []Finding
	ran := make(map[string]bool, len(passes))
	keep := func(pass string, raw []Finding) {
		for _, f := range raw {
			if prog.Allowed(pass, f.Pos) {
				// The directive earned its keep: record that for the
				// unusedallow AfterPass.
				prog.markUsed(pass, f.Pos)
				continue
			}
			out = append(out, f)
		}
	}
	for _, pass := range passes {
		ran[pass.Name()] = true
		var raw []Finding
		switch pp := pass.(type) {
		case AfterPass:
			continue // deferred below, once every suppression is recorded
		case ProgramPass:
			raw = pp.RunProgram(prog)
		case PackagePass:
			for _, p := range pkgs {
				raw = append(raw, pp.Run(p)...)
			}
		}
		keep(pass.Name(), raw)
	}
	for _, pass := range passes {
		if ap, ok := pass.(AfterPass); ok {
			keep(pass.Name(), ap.RunAfter(prog, ran))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	return out
}

// Package is one parsed, type-checked package plus lint bookkeeping.
type Package struct {
	// Path is the import path, Dir the absolute directory.
	Path string
	Dir  string
	Fset *token.FileSet
	// Files holds the package's non-test files in filename order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	allow map[allowKey]bool
	// allowReason maps each suppression back to the free-text reason its
	// directive gave, for the purity certificates' exemption records.
	allowReason map[allowKey]string
	// directives records every //lint:allow comment for the lintdirective
	// and unusedallow passes.
	directives []allowDirective
}

type allowKey struct {
	file string
	line int
	pass string
}

// allowDirective is one //lint:allow comment: its position, the pass names
// it lists, and the two source lines it covers (its own line, and the line
// after its comment group).
type allowDirective struct {
	pos    token.Position
	passes []string
	cover  [2]int
}

// Allowed reports whether a //lint:allow directive suppresses pass findings
// at pos.
func (p *Package) Allowed(pass string, pos token.Position) bool {
	return p.allow[allowKey{file: pos.Filename, line: pos.Line, pass: pass}]
}

// collectAllows indexes every //lint:allow directive: a directive covers
// its own line and, so that whole-line comments can annotate the statement
// below them, the line immediately after the comment group. The reason map
// and raw directive list come back alongside for the purity certificates
// and the lintdirective/unusedallow passes.
func collectAllows(fset *token.FileSet, files []*ast.File) (map[allowKey]bool, map[allowKey]string, []allowDirective) {
	allow := make(map[allowKey]bool)
	reasons := make(map[allowKey]string)
	var directives []allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimPrefix(text, " "), "lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				endLine := fset.Position(cg.End()).Line
				reason := strings.Join(fields[1:], " ")
				d := allowDirective{pos: pos, cover: [2]int{pos.Line, endLine + 1}}
				for _, pass := range strings.Split(fields[0], ",") {
					if pass == "" {
						continue
					}
					d.passes = append(d.passes, pass)
					for _, line := range d.cover {
						k := allowKey{file: pos.Filename, line: line, pass: pass}
						allow[k] = true
						if _, ok := reasons[k]; !ok {
							reasons[k] = reason
						}
					}
				}
				if len(d.passes) > 0 {
					directives = append(directives, d)
				}
			}
		}
	}
	return allow, reasons, directives
}

// walkStack traverses root in source order, calling fn for every node with
// the stack of its ancestors (outermost first, n excluded).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// finding builds a Finding at n's position.
func (p *Package) finding(pass string, n ast.Node, format string, args ...any) Finding {
	return Finding{
		Pos:  p.Fset.Position(n.Pos()),
		Pass: pass,
		Msg:  fmt.Sprintf(format, args...),
	}
}

// pkgFuncCall reports whether call is pkg.Func on the package named pkgPath
// (resolving through import aliases) and returns the function name.
func pkgFuncCall(p *Package, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// isMapType reports whether the expression's type (or the type it names)
// is a map.
func isMapType(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// funcDeclName renders a declaration as the Root spec syntax: "Func" for
// plain functions, "(Recv).Func" or "(*Recv).Func" for methods.
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, "*"
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return fd.Name.Name
	}
	return "(" + star + id.Name + ")." + fd.Name.Name
}
