package wormsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameLiveCode keeps README.md, DESIGN.md and EXPERIMENTS.md from
// naming code that is gone: every cmd/<x> or internal/<x> path they mention
// must be a directory, every Benchmark<Name> a declared benchmark, and every
// <pkg>.<Exported> whose <pkg> is a directory under internal/ a top-level
// declaration of that package; every -<name> after `go run ./cmd/<x>` (up
// to a # comment or a closing back-quote) must be -h or a flag
// cmd/<x>/main.go defines. The whole text is scanned, not only back-quoted
// spans, so fenced and indented blocks (the command list, the repository
// layout) are covered too. The `go run ./cmd/<x>` check also covers the CI
// workflows and the verify skill: the command must exist and define every
// flag passed. Go comments name benchmarks as well: every Benchmark<Name> in
// a // comment of a non-test .go file under internal/ or cmd/ must be
// declared too.
func TestDocsNameLiveCode(t *testing.T) {
	declared := declaredBenchmarks(t)
	decls := internalDeclarations(t)
	all := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	refs := []struct {
		kind   string
		re     *regexp.Regexp
		exists func(ref string) bool
	}{
		{"directory", regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+`), func(ref string) bool {
			fi, err := os.Stat(ref)
			return err == nil && fi.IsDir()
		}},
		{"benchmark", regexp.MustCompile(`\bBenchmark[A-Z][A-Za-z0-9_]*`), func(ref string) bool {
			return declared[ref]
		}},
		{"declaration", regexp.MustCompile(`\b[a-z][a-z0-9_]*\.[A-Z][A-Za-z0-9_]*`), func(ref string) bool {
			pkg, name, _ := strings.Cut(ref, ".")
			names, ok := decls[pkg]
			return !ok || names[name]
		}},
	}
	for _, r := range refs {
		for _, doc := range all {
			text, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(text), "\n") {
				for _, ref := range r.re.FindAllString(line, -1) {
					if !r.exists(ref) {
						t.Errorf("%s:%d: names %s %s, which does not exist", doc, i+1, r.kind, ref)
					}
				}
			}
		}
	}
	benchRef := refs[1].re
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, group := range f.Comments {
				for _, c := range group.List {
					if !strings.HasPrefix(c.Text, "//") {
						continue
					}
					for _, ref := range benchRef.FindAllString(c.Text, -1) {
						if !declared[ref] {
							t.Errorf("%s: names benchmark %s, which does not exist", fset.Position(c.Pos()), ref)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	cmdRun := regexp.MustCompile("go run \\./cmd/([a-z0-9_]+)([^#`]*)")
	flagArg := regexp.MustCompile(`\s-([A-Za-z][A-Za-z0-9_-]*)`)
	flags := make(map[string]map[string]bool)
	runDocs := all
	for _, pattern := range []string{".github/workflows/*.yml", ".claude/skills/verify/SKILL.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		runDocs = append(runDocs, matches...)
	}
	for _, doc := range runDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range cmdRun.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: runs cmd/%s, which does not exist", doc, i+1, m[1])
					continue
				}
				if flags[m[1]] == nil {
					flags[m[1]] = definedFlags(t, filepath.Join("cmd", m[1], "main.go"))
				}
				for _, f := range flagArg.FindAllStringSubmatch(m[2], -1) {
					if f[1] != "h" && !flags[m[1]][f[1]] {
						t.Errorf("%s:%d: passes -%s to cmd/%s, which defines no such flag", doc, i+1, f[1], m[1])
					}
				}
			}
		}
	}
}

// flagDefiners are the flag.FlagSet methods whose first string-literal
// argument is the flag's name.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// definedFlags returns the names of the flags a command's main.go defines.
func definedFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !flagDefiners[sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				names[name] = true
				break
			}
		}
		return true
	})
	return names
}

// internalDeclarations maps each package directory under internal/ to the
// exported top-level names (functions, types, variables, constants) of its
// non-test files.
func internalDeclarations(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						names[decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								names[id.Name] = true
							}
						}
					}
				}
			}
		}
		out[d.Name()] = names
	}
	return out
}

// declaredBenchmarks returns the name of every func Benchmark* in the
// module's test files.
func declaredBenchmarks(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Benchmark[A-Za-z0-9_]*)\(`)
	declared := make(map[string]bool)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}
