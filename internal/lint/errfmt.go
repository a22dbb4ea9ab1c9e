package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// ErrFmt requires fmt.Errorf to wrap an error operand with %w, not flatten
// it with %v or %s, so callers can errors.Is/As/Unwrap through it. The
// sentinels the CLIs map to exit statuses (a deadlock, a dependency cycle,
// lint findings) travel through such wraps, and a flattened one changes the
// exit status without failing to compile. Where flattening is intentional
// (to cut an Unwrap chain at an API boundary) annotate with
// //lint:allow errfmt.
type ErrFmt struct{}

// Name returns "errfmt".
func (ErrFmt) Name() string { return "errfmt" }

// Doc describes the pass.
func (ErrFmt) Doc() string {
	return "require %w wrapping of error operands in fmt.Errorf"
}

// RunProgram reports flattened error operands in every package.
func (ErrFmt) RunProgram(prog *Program) []Finding {
	var out []Finding
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if name, ok := pkgFuncCall(p, call, "fmt"); !ok || name != "Errorf" {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok {
					return true
				}
				if format, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, checkWrap(p, call, format)...)
				}
				return true
			})
		}
	}
	return out
}

// checkWrap flags error-typed operands of fmt.Errorf formatted with %v or
// %s instead of %w.
func checkWrap(p *Package, call *ast.CallExpr, format string) []Finding {
	vs, ok := formatVerbs(format)
	if !ok {
		return nil
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	var out []Finding
	for i, arg := range call.Args[1:] {
		if i >= len(vs) {
			break
		}
		v := vs[i]
		if v != 'v' && v != 's' {
			continue
		}
		t := p.Info.TypeOf(arg)
		if t == nil || !types.Implements(t, errType) {
			continue
		}
		out = append(out, p.finding(ErrFmt{}.Name(), arg,
			"error operand formatted with %%%c; use %%w so callers can unwrap it", v))
	}
	return out
}

// formatVerbs returns the verb consuming each successive operand of a
// Printf format. It reports ok=false for formats it cannot map reliably
// (explicit argument indexes).
func formatVerbs(format string) ([]byte, bool) {
	var vs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
	flags:
		for i < len(format) {
			switch format[i] {
			case '#', '+', '-', ' ', '0', '\'':
				i++
			default:
				break flags
			}
		}
		if i < len(format) && format[i] == '[' {
			return nil, false
		}
		for j := 0; j < 2; j++ { // width, then optional .precision
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
			if i < len(format) && format[i] == '*' {
				vs = append(vs, '*')
				i++
			}
			if j == 0 && i < len(format) && format[i] == '.' {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		vs = append(vs, format[i])
	}
	return vs, true
}
