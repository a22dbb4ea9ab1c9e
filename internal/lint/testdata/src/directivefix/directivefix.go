// Package directivefix is the fixture for directive/-fix/-baseline
// interaction: a fixable finding next to an //lint:allow suppression of the
// same pass, and a doc-comment directive on a function -fix rewrites. The
// directivefixfixed fixture is the byte-exact golden of applying every
// surviving fix — both directives must come through untouched.
package directivefix

import "fmt"

// WrapFree has no directive: -fix rewrites its %v to %w.
func WrapFree(err error) error {
	return fmt.Errorf("open store: %v", err)
}

// WrapAllowed suppresses the same finding: -fix must leave the line — and
// the directive — exactly as written.
func WrapAllowed(err error) error {
	return fmt.Errorf("legacy format: %v", err) //lint:allow errfmt kept verbatim for a downstream parser
}

// WrapAudited carries a directive of another pass in its doc comment; the
// fix applied to its body must not disturb it.
//
//lint:allow purity fixture exemption that must survive -fix
func WrapAudited(err error) error {
	return fmt.Errorf("close store: %v", err)
}
