package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wormsim/internal/cdg"
)

// TestRun: an acyclic algorithm exits 0, a cyclic one exits 2 and prints its
// witness under -witness, and a usage mistake exits 1. -certify's matrix is
// the cdg package's golden test; its report and verdict are TestRunCertify's.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		code       int
		wantStdout string
		wantStderr string
	}{
		{[]string{"-alg", "ecube", "-k", "4"}, 0, "ACYCLIC", ""},
		{[]string{"-alg", "2pnsrc", "-witness"}, 2, " -> ", ""},
		{[]string{"-alg", "bogus"}, 1, "", ""},
		{[]string{"-nope"}, 1, "", "-nope"},
		{[]string{"-h"}, 0, "", "-witness"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if got := exitCode(err); got != tc.code {
			t.Errorf("run(%v) = %v: exit %d, want %d", tc.args, err, got, tc.code)
		}
		if !strings.Contains(stdout.String(), tc.wantStdout) {
			t.Errorf("run(%v) stdout lacks %q:\n%s", tc.args, tc.wantStdout, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("run(%v) stderr lacks %q:\n%s", tc.args, tc.wantStderr, stderr.String())
		}
	}
}

// TestRunCertify: the gate writes the certificate file either way, exits 0
// when every cell meets its registered expectation, and exits 2 — naming
// the cell — when one contradicts it.
func TestRunCertify(t *testing.T) {
	cell := cdg.Certificate{Algorithm: "2pnsrc", Instance: "4x4 torus", Grid: "4-ary 2-cube torus",
		Acyclic: true, Method: cdg.MethodDallySeitz, Certified: true}
	mismatch := &cdg.Certification{
		Schema: cdg.Schema, Algorithms: []string{"2pnsrc"}, Instances: []string{"4x4 torus"},
		Certificates: []cdg.Certificate{cell}, DallySeitz: 1,
		Failures: []string{"2pnsrc on 4x4 torus: certified=true (method dally-seitz), expected known-cyclic"},
	}
	cell.Algorithm, cell.OK = "ecube", true
	ok := &cdg.Certification{
		Schema: cdg.Schema, Algorithms: []string{"ecube"}, Instances: []string{"4x4 torus"},
		Certificates: []cdg.Certificate{cell}, DallySeitz: 1, AllOK: true,
	}
	for _, tc := range []struct {
		cert       *cdg.Certification
		code       int
		wantStderr string
	}{
		{ok, 0, ""},
		{mismatch, 2, "FAIL 2pnsrc on 4x4 torus"},
	} {
		path := filepath.Join(t.TempDir(), "certs.json")
		var stdout, stderr bytes.Buffer
		err := runCertify(tc.cert, path, &stdout, &stderr)
		if got := exitCode(err); got != tc.code {
			t.Errorf("%s: runCertify = %v: exit %d, want %d", tc.cert.Algorithms[0], err, got, tc.code)
		}
		if !strings.Contains(stderr.String(), tc.wantStderr) {
			t.Errorf("%s: stderr lacks %q:\n%s", tc.cert.Algorithms[0], tc.wantStderr, stderr.String())
		}
		if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), tc.cert.Algorithms[0]) {
			t.Errorf("%s: certificate file not written: %v", tc.cert.Algorithms[0], err)
		}
	}
}
