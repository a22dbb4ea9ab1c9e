package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ErrFmt enforces the repo's error conventions on errors.New and
// fmt.Errorf:
//
//   - error strings start lower-case (identifiers and acronyms like
//     "Intn" or "JSON" are fine) and do not end with punctuation or a
//     newline — they get embedded mid-sentence by callers;
//   - an error operand to fmt.Errorf is wrapped with %w, not flattened
//     with %v or %s, so callers can errors.Is/As/Unwrap through it. Where
//     flattening is intentional (to cut an Unwrap chain at an API
//     boundary) annotate with //lint:allow errfmt.
type ErrFmt struct{}

// Name returns "errfmt".
func (ErrFmt) Name() string { return "errfmt" }

// Doc describes the pass.
func (ErrFmt) Doc() string {
	return "enforce error-string style and %w wrapping of error operands"
}

// Run reports convention violations.
func (ErrFmt) Run(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var isErrorf bool
			if name, ok := pkgFuncCall(p, call, "errors"); ok && name == "New" {
				isErrorf = false
			} else if name, ok := pkgFuncCall(p, call, "fmt"); ok && name == "Errorf" {
				isErrorf = true
			} else {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return true
			}
			msg, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			out = append(out, checkErrString(p, lit, msg)...)
			if isErrorf {
				out = append(out, checkWrap(p, call, msg)...)
			}
			return true
		})
	}
	return out
}

// checkErrString applies the style rules to one error message literal.
func checkErrString(p *Package, lit *ast.BasicLit, msg string) []Finding {
	var out []Finding
	if msg == "" {
		return nil
	}
	if last, _ := utf8.DecodeLastRuneInString(msg); strings.ContainsRune(".!?: \n", last) {
		out = append(out, p.finding(ErrFmt{}.Name(), lit,
			"error string ends with %q; drop trailing punctuation (callers embed it mid-sentence)", last))
	}
	if word := firstWord(msg); isCapitalizedSentenceWord(word) {
		out = append(out, p.finding(ErrFmt{}.Name(), lit,
			"error string starts with capitalized word %q; error strings start lower-case", word))
	}
	return out
}

// firstWord returns the leading run of letters and digits.
func firstWord(s string) string {
	end := len(s)
	for i, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			end = i
			break
		}
	}
	return s[:end]
}

// isCapitalizedSentenceWord reports whether word looks like the start of a
// capitalized sentence — upper-case first rune, all later runes lower-case.
// Identifier-ish words (Intn, JSON, VCs) have interior upper-case or digits
// and pass.
func isCapitalizedSentenceWord(word string) bool {
	if word == "" {
		return false
	}
	for i, r := range word {
		if i == 0 {
			if !unicode.IsUpper(r) {
				return false
			}
			continue
		}
		if !unicode.IsLower(r) {
			return false
		}
	}
	return utf8.RuneCountInString(word) > 1
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
