// Package errbad is a wormlint test fixture for the errfmt pass. Lines the
// pass should report carry a "// WANT errfmt" marker.
package errbad

import (
	"fmt"
	"os"
)

// Open flattens the underlying error, hiding it from errors.Is.
func Open(path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("open %s: %v", path, err) // WANT errfmt
	}
	return nil
}

// Wrap is the good form.
func Wrap(err error) error { return fmt.Errorf("wrap: %w", err) }

// Boundary is annotated intentional flattening.
func Boundary(err error) error {
	return fmt.Errorf("boundary: %v", err) //lint:allow errfmt (deliberate unwrap barrier)
}

// Starred exercises width-star operand counting: the error lands on %w.
func Starred(width int, err error) error {
	return fmt.Errorf("pad %*d: %w", width, 7, err)
}
