// Package lint is wormsim's domain-specific static-analysis suite: a small
// analyzer framework (go/ast + go/types, stdlib only — see Loader) with
// passes that machine-enforce the invariants the paper's methodology and
// the simulator's design rest on.
//
// Every pass sees the whole loaded module at once through a Program: a
// cross-package static call graph with conservative devirtualization of
// interface and method-value calls, plus a shared reaching-facts dataflow
// driver (see callgraph.go). simdeterminism and purity walk that graph, so
// "no wall-clock read reachable from Step" holds across package boundaries,
// not just inside internal/network; hookguard loops over Program.Pkgs.
//
// The passes:
//
//   - simdeterminism — the simulation core must be bit-reproducible from
//     its seeds: no math/rand, no wall clock, no iteration over maps —
//     enforced per target package and on everything reachable from the
//     engine and result-serving entry points, across packages.
//   - purity — the run entry points (core.Run, RunCached, SweepReplicated,
//     RunFigure) must be pure functions of their Config:
//     every impurity they reach is either fixed or an annotated exemption,
//     and the exemption list is golden-pinned — the theorem the run store's
//     cache-hit contract rests on.
//   - hookguard — telemetry hook call sites must be nil-guarded so that
//     disabled telemetry stays a branch, never a panic.
//
// simdeterminism and purity read one set of effect facts (effects.go): each
// function body is scanned once per Program.
//
// That is the whole suite, on purpose: a pass stays while it catches a
// planted bug that no test catches (DESIGN.md §5's mutation matrix). The
// engine's zero-allocation contract is TestSteadyStateZeroAlloc's, the
// CLIs' %w-wrapped sentinels are their command tests'. Lock copying, atomic
// and mutex discipline and loop capture are go vet's and the race
// detector's job, and the engine's conservation ledgers are balanced at run
// time, every cycle, by the network package's invariant checker.
//
// A finding can be suppressed where the flagged use is intentional by
// annotating the line (or the line above it) with a directive:
//
//	//lint:allow <pass>[,<pass>...] [reason]
//
// A directive that names no registered pass, or whose pass ran and
// suppressed nothing, is itself a [lintdirective] finding: stale
// suppressions rot.
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

// Pass is one analyzer. Name is what //lint:allow directives and -list use.
type Pass interface {
	Name() string
	// Doc is a one-line description for -list.
	Doc() string
	RunProgram(prog *Program) []Finding
}

// DefaultPasses returns the full suite in reporting order.
func DefaultPasses() []Pass {
	return []Pass{
		NewSimDeterminism(),
		NewPurity(),
		NewHookGuard(),
	}
}

// Run applies every pass to the program's packages, drops suppressed
// findings, adds the stale-directive findings (see staleDirectives), and
// returns the rest sorted by file, line, pass and message. A Program can
// serve several Run calls: its call graph and effect facts are built once.
func Run(prog *Program, passes []Pass) []Finding {
	var out []Finding
	ran := make(map[string]bool, len(passes))
	for _, pass := range passes {
		ran[pass.Name()] = true
		for _, f := range pass.RunProgram(prog) {
			k := allowKey{file: f.Pos.Filename, line: f.Pos.Line, pass: pass.Name()}
			if _, ok := prog.allow[k]; ok {
				prog.used[k] = true // the directive earned its keep
				continue
			}
			out = append(out, f)
		}
	}
	out = append(out, staleDirectives(prog, ran)...)
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

// staleDirectives keeps the suppression mechanism honest. Each pass name in
// a //lint:allow directive is a [lintdirective] finding when no registered
// pass has that name (a typo, or a pass the suite no longer has), or when
// the pass ran and suppressed no finding on either covered line (the
// exemption the directive documents is gone, and would silently re-open if
// the flagged code came back). A pass that did not run cannot prove its
// directives stale. These findings cannot themselves be suppressed.
func staleDirectives(prog *Program, ran map[string]bool) []Finding {
	registered := make(map[string]bool)
	for _, p := range DefaultPasses() {
		registered[p.Name()] = true
	}
	var out []Finding
	for _, p := range prog.Pkgs {
		for _, d := range p.directives {
			for _, pass := range d.passes {
				used := func(line int) bool { return prog.used[allowKey{file: d.pos.Filename, line: line, pass: pass}] }
				var msg string
				switch {
				case !registered[pass]:
					msg = "unknown pass \"" + pass + "\" in //lint:allow directive; it suppresses nothing (run wormlint -list for the registry)"
				case ran[pass] && !used(d.cover[0]) && !used(d.cover[1]):
					msg = "//lint:allow " + pass + " suppresses no finding; the exemption it documents no longer exists — delete it"
				default:
					continue
				}
				out = append(out, Finding{Pos: d.pos, Pass: "lintdirective", Msg: msg})
			}
		}
	}
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

	// allow maps each suppression to the free-text reason its directive
	// gave, which the purity exemption list records.
	allow map[allowKey]string
	// directives records every //lint:allow comment for the stale-directive
	// rule.
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

// collectAllows indexes every //lint:allow directive: a directive covers
// its own line and, so that whole-line comments can annotate the statement
// below them, the line immediately after the comment group. The raw
// directive list comes back alongside for the stale-directive rule.
func collectAllows(fset *token.FileSet, files []*ast.File) (map[allowKey]string, []allowDirective) {
	allow := make(map[allowKey]string)
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
						if _, ok := allow[k]; !ok {
							allow[k] = reason
						}
					}
				}
				if len(d.passes) > 0 {
					directives = append(directives, d)
				}
			}
		}
	}
	return allow, directives
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
