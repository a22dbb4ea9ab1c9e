package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the one effect scanner, which extracts the local effect
// facts of each function body (see funcEffects), and the standard-library
// classification tables those facts rest on. The purity pass (purity.go)
// lifts the facts to whole-program judgements over the call graph, and
// simdeterminism reads their wall-clock, rand and map-order subset.

// Impurity source codes. Each names one way a function can stop being a
// pure function of its inputs; they key purity exemptions and make
// findings greppable.
const (
	srcGlobalWrite = "global-write"        // assignment to a package-level var
	srcClock       = "wall-clock"          // time.Now/Since/Until/Sleep/timers
	srcRand        = "rand"                // math/rand, crypto/rand
	srcIO          = "io"                  // filesystem, network, process state
	srcMachine     = "machine-state"       // runtime.* queries and knobs
	srcAtomic      = "atomic-write"        // sync/atomic stores, adds, swaps
	srcMapOrder    = "map-order"           // map iteration order escaping
	srcSelect      = "select"              // select races its ready cases
	srcChan        = "chan"                // channel send/receive/close
	srcGoroutine   = "goroutine"           // go statement: scheduling order
	srcStdlib      = "unclassified-stdlib" // stdlib call outside the tables
)

// impurity is one local impurity fact: where, what kind, and a
// human-readable detail.
type impurity struct {
	pos    token.Position
	source string
	detail string
}

// funcEffects holds one declared function's intraprocedural facts.
type funcEffects struct {
	impurities []impurity
}

// stdlibPurePkgs lists standard-library packages whose exported functions
// are pure or argument-mediated: they compute over their operands and write
// only through writers the caller passed in. A call into one of these is
// never an impurity by itself (specific exceptions live in
// stdlibFuncClass). The list holds only packages the module calls; any
// other package falls to the unclassified default in classifyStdlibCall.
var stdlibPurePkgs = map[string]bool{
	"bufio": true, "bytes": true, "cmp": true, "context": true,
	"crypto/sha256": true, "encoding/hex": true, "encoding/json": true,
	"errors": true, "fmt": true, "hash": true, "maps": true, "math": true,
	"math/big": true, "math/bits": true, "path/filepath": true,
	"slices": true, "sort": true, "strconv": true, "strings": true,
	"time": true, "unicode": true, "unicode/utf8": true,
}

// stdlibImpurePkgs maps standard-library packages whose calls are impure by
// nature to the impurity source they carry: the packages the module calls,
// plus every source of randomness, which simdeterminism forbids whether or
// not anything calls it yet.
var stdlibImpurePkgs = map[string]string{
	"crypto/rand": srcRand, "math/rand": srcRand, "math/rand/v2": srcRand,
	"flag": srcIO, "io/fs": srcIO, "log": srcIO, "net": srcIO,
	"net/http": srcIO, "net/url": srcIO, "os": srcIO, "syscall": srcIO,
	"runtime": srcMachine,
}

// funcClass is a stdlib call's impurity: its source and detail. The zero
// value means the call is pure.
type funcClass struct {
	source string
	detail string
}

// stdlibFuncClass overrides the package tables for specific functions,
// keyed "pkg.Func" for package functions and "pkg.Type.Method" for methods.
// These are the functions whose effect disagrees with their package: the
// clock reads inside otherwise-pure time, the stdout printers inside fmt,
// map-order iterators inside maps, context's timer constructors, and the
// filesystem walkers inside path/filepath.
var stdlibFuncClass = map[string]funcClass{
	"time.Now":       {srcClock, "time.Now reads the wall clock"},
	"time.Since":     {srcClock, "time.Since reads the wall clock"},
	"time.Until":     {srcClock, "time.Until reads the wall clock"},
	"time.Sleep":     {srcClock, "time.Sleep blocks on the wall clock"},
	"time.After":     {srcClock, "time.After starts a wall-clock timer"},
	"time.Tick":      {srcClock, "time.Tick starts a wall-clock ticker"},
	"time.NewTimer":  {srcClock, "time.NewTimer starts a wall-clock timer"},
	"time.NewTicker": {srcClock, "time.NewTicker starts a wall-clock ticker"},

	"fmt.Print":   {srcIO, "fmt.Print writes to stdout"},
	"fmt.Printf":  {srcIO, "fmt.Printf writes to stdout"},
	"fmt.Println": {srcIO, "fmt.Println writes to stdout"},
	"fmt.Scan":    {srcIO, "fmt.Scan reads stdin"},
	"fmt.Scanf":   {srcIO, "fmt.Scanf reads stdin"},
	"fmt.Scanln":  {srcIO, "fmt.Scanln reads stdin"},

	"maps.Keys":   {srcMapOrder, "maps.Keys yields keys in randomized order"},
	"maps.Values": {srcMapOrder, "maps.Values yields values in randomized order"},
	"maps.All":    {srcMapOrder, "maps.All iterates in randomized order"},

	"context.WithTimeout":  {srcClock, "context.WithTimeout arms a wall-clock deadline"},
	"context.WithDeadline": {srcClock, "context.WithDeadline arms a wall-clock deadline"},

	"path/filepath.Walk":         {srcIO, "filepath.Walk reads the filesystem"},
	"path/filepath.WalkDir":      {srcIO, "filepath.WalkDir reads the filesystem"},
	"path/filepath.Glob":         {srcIO, "filepath.Glob reads the filesystem"},
	"path/filepath.Abs":          {srcIO, "filepath.Abs reads the working directory"},
	"path/filepath.EvalSymlinks": {srcIO, "filepath.EvalSymlinks reads the filesystem"},
}

// classifyStdlibCall classifies a call to a function outside the module:
// the zero funcClass for a pure call, else its impurity. Resolution order:
// the per-function override table, then the sync family's structural rules,
// then the package tables, and finally the conservative default — an
// unclassified stdlib call is an impurity, so a new dependency must be
// classified on purpose rather than slip through silently.
func classifyStdlibCall(fn *types.Func) funcClass {
	pkg := fn.Pkg()
	if pkg == nil {
		// Universe-scope methods (error.Error) compute on their receiver.
		return funcClass{}
	}
	path := pkg.Path()
	key := path + "." + fn.Name()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
			key = path + "." + recv + "." + fn.Name()
		}
	}
	if fc, ok := stdlibFuncClass[key]; ok {
		return fc
	}

	switch path {
	case "sync/atomic":
		// Loads only observe shared state; everything else mutates it.
		if strings.HasPrefix(fn.Name(), "Load") {
			return funcClass{}
		}
		return funcClass{srcAtomic, "sync/atomic " + fn.Name() + " mutates shared state"}
	case "sync":
		// Mutexes, conditions and Once are synchronization, not data
		// effects. sync.Map is shared mutable state with unordered
		// iteration, so it gets the atomic rules.
		if recv == "Map" {
			switch fn.Name() {
			case "Load", "Len":
				return funcClass{}
			case "Range":
				return funcClass{srcMapOrder, "sync.Map.Range iterates in unspecified order"}
			}
			return funcClass{srcAtomic, "sync.Map." + fn.Name() + " mutates shared state"}
		}
		return funcClass{}
	}

	if src, ok := stdlibImpurePkgs[path]; ok {
		verb := "is impure"
		switch src {
		case srcIO:
			verb = "does I/O"
		case srcRand:
			verb = "draws nondeterministic randomness"
		case srcMachine:
			verb = "reads machine state"
		}
		return funcClass{src, "call to " + displayKey(key) + " " + verb}
	}
	if stdlibPurePkgs[path] {
		return funcClass{}
	}
	return funcClass{srcStdlib, "call to unclassified standard-library function " + displayKey(key) +
		" (classify it in the effect tables)"}
}

// displayKey shortens "path/filepath.Glob"-style keys to their last path
// element for diagnostics.
func displayKey(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// effectsIndex lazily computes the local effect facts of every declared
// function, shared between the purity and simdeterminism passes so one Run
// scans each body exactly once.
func (prog *Program) effectsIndex() map[*types.Func]*funcEffects {
	if prog.effects != nil {
		return prog.effects
	}
	prog.effects = make(map[*types.Func]*funcEffects, len(prog.decls))
	modPrefix := prog.modulePrefix()
	for _, e := range prog.funcDecls() {
		prog.effects[e.Fn] = scanEffects(prog, e.Pkg, e.Decl.Body, modPrefix)
	}
	return prog.effects
}

// scanEffects extracts the local effect facts of one subtree: a function
// body, or a package-level var declaration whose initializers run at package
// init. Calls to module functions are deliberately not facts: the call graph
// propagates their effects instead. Calls through plain function values
// (hook fields like Config.OnTick) have no static callee and produce no fact
// either — that boundary is stated on Purity.
func scanEffects(prog *Program, p *Package, root ast.Node, modPrefix string) *funcEffects {
	fe := &funcEffects{}
	addImp := func(n ast.Node, source, detail string) {
		fe.impurities = append(fe.impurities, impurity{
			pos:    p.Fset.Position(n.Pos()),
			source: source,
			detail: detail,
		})
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for _, lhs := range n.Lhs {
				if v := pkgLevelTarget(p, lhs); v != nil {
					addImp(lhs, srcGlobalWrite, "write to package-level var "+varDisplay(v))
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelTarget(p, n.X); v != nil {
				addImp(n, srcGlobalWrite, "write to package-level var "+varDisplay(v))
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					addImp(n, srcMapOrder, "iteration over "+t.String()+" has randomized order")
				case *types.Chan:
					addImp(n, srcChan, "range over a channel synchronizes on scheduler state")
				}
			}
		case *ast.SendStmt:
			addImp(n, srcChan, "channel send synchronizes on scheduler state")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				addImp(n, srcChan, "channel receive synchronizes on scheduler state")
			}
		case *ast.SelectStmt:
			addImp(n, srcSelect, "select races its ready cases")
		case *ast.GoStmt:
			addImp(n, srcGoroutine, "go statement hands work to the scheduler")
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					addImp(n, srcChan, "close publishes to channel receivers")
				}
			}
			fn := calleeFunc(p, n)
			if fn == nil {
				break
			}
			if _, isModule := prog.decls[fn]; isModule {
				break // effects arrive via the call graph
			}
			if _, isModule := prog.decls[fn.Origin()]; isModule {
				break
			}
			if fn.Pkg() != nil {
				path := fn.Pkg().Path()
				if path == modPrefix || strings.HasPrefix(path, modPrefix+"/") {
					// A module function outside the loaded set (partial
					// load, or an interface method devirtualized by the
					// graph): not a stdlib fact.
					break
				}
			}
			if fc := classifyStdlibCall(fn); fc.source != "" {
				addImp(n, fc.source, fc.detail)
			}
		}
		return true
	})
	return fe
}

// calleeFunc resolves a call's static callee, or nil for calls through
// plain function values and builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// pkgLevelTarget returns the package-level variable an assignment target
// ultimately writes to, or nil. It strips stars, indexes and field
// selections: registry["x"] = v and pkgVar.Field = v both mutate state that
// outlives the call.
func pkgLevelTarget(p *Package, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// pkg.Var: the selector identifier is the var itself.
			if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && isPkgLevelVar(v) {
				return v
			}
			e = x.X
		case *ast.Ident:
			if v, ok := p.Info.Uses[x].(*types.Var); ok && isPkgLevelVar(v) {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// isPkgLevelVar reports whether v is declared at package scope (not a
// field, parameter or local).
func isPkgLevelVar(v *types.Var) bool {
	if v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// varDisplay renders a package-level var for diagnostics.
func varDisplay(v *types.Var) string {
	if v.Pkg() == nil {
		return v.Name()
	}
	return v.Pkg().Path() + "." + v.Name()
}
