package cdg

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fullCertification is Certify(nil), computed once: the full matrix is the
// package's slowest analysis, and every test below reads the same cells.
var fullCertification = sync.OnceValues(func() (*Certification, error) { return Certify(nil) })

// certificates returns the full certification's cells for the algorithms
// named, in certification order.
func certificates(t *testing.T, algs ...string) []Certificate {
	t.Helper()
	cert, err := fullCertification()
	if err != nil {
		t.Fatal(err)
	}
	var out []Certificate
	for _, c := range cert.Certificates {
		if slices.Contains(algs, c.Algorithm) {
			out = append(out, c)
		}
	}
	if len(out) != len(algs)*len(Matrix()) {
		t.Fatalf("full certification holds %d cells of %v, want %d", len(out), algs, len(algs)*len(Matrix()))
	}
	return out
}

// TestCertifyGolden locks the full certification output: every registered
// algorithm on the full matrix, byte-for-byte. Any change to an algorithm,
// the analyzer, or the matrix that alters a verdict, an edge count or a
// witness shows up as a diff here; run `go test ./internal/cdg -run
// Golden -update` to re-bless after reviewing it.
func TestCertifyGolden(t *testing.T) {
	cert, err := fullCertification()
	if err != nil {
		t.Fatal(err)
	}
	if !cert.AllOK {
		t.Errorf("certification failures: %v", cert.Failures)
	}
	var buf bytes.Buffer
	if err := cert.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "cdg_certificates.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("certificates differ from %s (rerun with -update after reviewing);\ngot:\n%s", golden, diffHint(buf.Bytes(), want))
	}
}

// diffHint returns the first differing line to keep failures readable.
func diffHint(got, want []byte) string {
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(gl), len(wl))
}

// TestCertifyExpectations spot-checks the registered expectations against
// the analyzer: the six paper algorithms are certified on every compatible
// cell except the 2pn family on tori, and the 2pnsrc torus witness is a
// genuine ring cycle (length >= 3).
func TestCertifyExpectations(t *testing.T) {
	for _, c := range certificates(t, "ecube", "nlast", "2pn", "2pnsrc", "phop", "nhop", "nbc") {
		if c.Skipped != "" {
			continue
		}
		wantCertified := !KnownCyclic(c.Algorithm, isTorus(c.Instance))
		if c.Certified != wantCertified {
			t.Errorf("%s on %s: certified=%v, want %v", c.Algorithm, c.Instance, c.Certified, wantCertified)
		}
		if !c.Certified && len(c.Witness) < 3 {
			t.Errorf("%s on %s: uncertified but witness suspiciously short: %v", c.Algorithm, c.Instance, c.Witness)
		}
		if c.Certified && len(c.Witness) != 0 {
			t.Errorf("%s on %s: certified cell carries a witness %v", c.Algorithm, c.Instance, c.Witness)
		}
	}
}

func isTorus(instance string) bool {
	return len(instance) > 5 && instance[len(instance)-5:] == "torus"
}

// TestCertifyUnknownAlgorithm: a bogus name is a hard error, not a skip.
func TestCertifyUnknownAlgorithm(t *testing.T) {
	if _, err := Certify([]string{"nosuch"}); err == nil {
		t.Error("Certify with an unknown algorithm should fail")
	}
}

// TestEscapeSubfunctionStillRoutes: the escape restriction must stay
// connected — one candidate per admissible physical hop, never empty before
// arrival — or the Duato argument would be vacuous.
func TestEscapeSubfunctionStillRoutes(t *testing.T) {
	for _, c := range certificates(t, "2pn", "2pnsrc") {
		if c.Method == MethodDuatoEscape && c.EscapeEdges == 0 {
			t.Errorf("%s on %s: escape subfunction produced no dependency edges", c.Algorithm, c.Instance)
		}
	}
}
