package lint

import (
	"go/ast"
	"go/types"
	"maps"
	"strings"
)

// Program is the whole loaded module as one analysis unit: every package the
// caller passed to Run, an index from function objects to their
// declarations, a merged //lint:allow index, and (built on demand) the
// cross-package call graph program passes share.
type Program struct {
	// Pkgs holds the loaded packages sorted by import path.
	Pkgs []*Package

	decls   map[*types.Func]*ast.FuncDecl
	declPkg map[*types.Func]*Package
	byPath  map[string]*Package
	// allow merges the packages' suppressions and their reasons.
	allow map[allowKey]string
	// used records which suppressions Run exercised, for the
	// stale-directive rule.
	used map[allowKey]bool

	graph *CallGraph
	// graphBuilds counts buildCallGraph invocations; the build-once
	// contract behind sharing one Program across passes and Run calls.
	graphBuilds int
	declList    []declEntry
	effects     map[*types.Func]*funcEffects
}

// declEntry is one declared function body in deterministic program order:
// packages by import path, files by name, declarations in source order.
type declEntry struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Fn   *types.Func
}

// NewProgram indexes the packages into one analysis unit.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:    pkgs,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		declPkg: make(map[*types.Func]*Package),
		byPath:  make(map[string]*Package, len(pkgs)),
		allow:   make(map[allowKey]string),
		used:    make(map[allowKey]bool),
	}
	for _, p := range pkgs {
		prog.byPath[p.Path] = p
		maps.Copy(prog.allow, p.allow) // keys are per file: no collisions
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					prog.decls[obj] = fd
					prog.declPkg[obj] = p
				}
			}
		}
	}
	return prog
}

// Package returns the loaded package with the given import path, or nil.
func (prog *Program) Package(path string) *Package { return prog.byPath[path] }

// modulePrefix is the leading path segment of the loaded packages ("wormsim"
// for the real module), used to tell module functions apart from the
// standard library when classifying call effects.
func (prog *Program) modulePrefix() string {
	if len(prog.Pkgs) == 0 {
		return ""
	}
	path := prog.Pkgs[0].Path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// Decl returns fn's declaration and owning package, or (nil, nil) for
// functions without a loaded body (stdlib, interface methods).
func (prog *Program) Decl(fn *types.Func) (*ast.FuncDecl, *Package) {
	return prog.decls[fn], prog.declPkg[fn]
}

// FindFunc resolves a "Func" / "(Recv).Func" / "(*Recv).Func" spec inside
// the package with the given import path, or nil.
func (prog *Program) FindFunc(pkgPath, spec string) *types.Func {
	p := prog.byPath[pkgPath]
	if p == nil {
		return nil
	}
	for fn, fd := range prog.decls {
		if prog.declPkg[fn] == p && funcDeclName(fd) == spec {
			return fn
		}
	}
	return nil
}

// Graph returns the program's call graph, building it on first use so a run
// of only the graph-free pass (hookguard) never pays for it. The
// graph is cached, so every pass of a wormlint run shares one graph.
func (prog *Program) Graph() *CallGraph {
	if prog.graph == nil {
		prog.graphBuilds++
		prog.graph = buildCallGraph(prog)
	}
	return prog.graph
}

// funcDecls returns every declared function body in deterministic program
// order, built once and shared by the call graph, the effect scan and the
// passes, so each walk is a slice scan rather than a fresh AST traversal.
func (prog *Program) funcDecls() []declEntry {
	if prog.declList == nil {
		for _, q := range prog.Pkgs {
			for _, f := range q.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, ok := q.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					prog.declList = append(prog.declList, declEntry{Pkg: q, Decl: fd, Fn: fn})
				}
			}
		}
		if prog.declList == nil {
			prog.declList = []declEntry{}
		}
	}
	return prog.declList
}

// funcDisplayName renders fn for diagnostics: "pkg.Func" or
// "pkg.(*Recv).Func", with the package elided for the anchor package.
func (prog *Program) funcDisplayName(fn *types.Func, anchor *Package) string {
	fd, p := prog.Decl(fn)
	name := fn.Name()
	if fd != nil {
		name = funcDeclName(fd)
	}
	if p == nil || p == anchor {
		return name
	}
	return p.Types.Name() + "." + name
}
