package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPurityFixture: each injected impurity class fires at its WANT-marked
// line, the annotated counter is suppressed, and orphan's unreachable
// clock read stays silent.
func TestPurityFixture(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	checkFixture(t, pkgs, &Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Run"}}})
}

// TestPurityWitnessChain: the impurity hidden in dep must explain how the
// entry point reaches it.
func TestPurityWitnessChain(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	fs := Run(pkgs, []Pass{&Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Run"}}}})
	found := false
	for _, f := range fs {
		if strings.Contains(f.Msg, "reachable via puritybad.Run → Leak") {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding carries the Run → Leak witness chain; findings: %v", fs)
	}
}

// TestPurityMissingEntry: a misconfigured entry point is a finding for the
// pass and a hard error for certification.
func TestPurityMissingEntry(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	pu := &Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Missing"}}}
	fs := Run(pkgs, []Pass{pu})
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "not found") {
		t.Fatalf("missing entry point findings = %v, want one naming the gap", fs)
	}
	if _, err := CertifyPurity(NewProgram(pkgs), pu, ""); err == nil {
		t.Error("CertifyPurity accepted a missing entry point")
	}
}

// TestCertifyPurityFixture pins the certificate structure on the fixture:
// the entry is impure (unannotated violations), the annotated counter is
// an exemption carrying its reason, the frontier tiers every reachable
// function, and the unreachable orphan appears nowhere.
func TestCertifyPurityFixture(t *testing.T) {
	pkgs := loadFixtures(t, "puritybad", "puritybad/dep")
	prog := NewProgram(pkgs)
	pu := &Purity{Entries: []FuncRef{{Pkg: pkgs[0].Path, Func: "Run"}}}
	certs, err := CertifyPurity(prog, pu, "")
	if err != nil {
		t.Fatalf("CertifyPurity: %v", err)
	}
	if certs.Schema != PuritySchema {
		t.Errorf("schema = %q, want %q", certs.Schema, PuritySchema)
	}
	if len(certs.Entries) != 1 {
		t.Fatalf("got %d certificates, want 1", len(certs.Entries))
	}
	cert := certs.Entries[0]
	if cert.Entry != pkgs[0].Path+".Run" {
		t.Errorf("entry = %q, want %q", cert.Entry, pkgs[0].Path+".Run")
	}
	if cert.Pure {
		t.Error("certificate claims Pure despite unannotated violations")
	}
	// Run, readOnly, spin, dep.Leak — and never orphan or anything else.
	if cert.ReachableFunctions != 4 {
		t.Errorf("reachable_functions = %d, want 4", cert.ReachableFunctions)
	}

	if len(cert.Exemptions) != 1 {
		t.Fatalf("exemptions = %v, want exactly the annotated counter", cert.Exemptions)
	}
	ex := cert.Exemptions[0]
	if ex.Source != "atomic-write" {
		t.Errorf("exemption source = %q, want atomic-write", ex.Source)
	}
	if !strings.Contains(ex.Reason, "observe-only counter") {
		t.Errorf("exemption reason %q does not carry the annotation's reason", ex.Reason)
	}
	if ex.Witness != "Run" {
		t.Errorf("exemption witness = %q, want Run", ex.Witness)
	}

	if len(cert.Violations) == 0 {
		t.Fatal("fixture produced no violations")
	}
	sources := make(map[string]bool)
	for _, v := range cert.Violations {
		sources[v.Source] = true
		if v.Reason != "" {
			t.Errorf("violation %v carries a reason; reasons belong to exemptions", v)
		}
	}
	for _, want := range []string{
		"global-write", "wall-clock", "rand", "io", "machine-state",
		"map-order", "chan", "select", "goroutine",
	} {
		if !sources[want] {
			t.Errorf("no violation with source %q", want)
		}
	}

	frontier := map[string][]string{
		"pure":      cert.Frontier.Pure,
		"read_only": cert.Frontier.ReadOnly,
		"impure":    cert.Frontier.Impure,
	}
	for tier, wantFn := range map[string]string{
		"pure":      pkgs[0].Path + ".spin",
		"read_only": pkgs[0].Path + ".readOnly",
		"impure":    pkgs[1].Path + ".Leak",
	} {
		found := false
		for _, name := range frontier[tier] {
			if name == wantFn {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not in the %s frontier tier: %v", wantFn, tier, frontier[tier])
		}
	}
	for tier, names := range frontier {
		for _, name := range names {
			if strings.HasSuffix(name, ".orphan") {
				t.Errorf("unreachable orphan leaked into the %s tier", tier)
			}
		}
	}

	if !strings.HasPrefix(certs.Signature, "sha256:") {
		t.Errorf("signature = %q, want a sha256: prefix", certs.Signature)
	}
	again, err := CertifyPurity(NewProgram(loadFixtures(t, "puritybad", "puritybad/dep")), pu, "")
	if err != nil {
		t.Fatalf("CertifyPurity (rerun): %v", err)
	}
	if again.Signature != certs.Signature {
		t.Errorf("certification is not deterministic: %s vs %s", again.Signature, certs.Signature)
	}
}

// purityPins projects a certificate set onto what a reviewer must
// re-approve: per entry point whether it is pure, and the exemptions that
// "pure modulo" rests on, each as (func, source, detail, reason) — sorted on
// those, so neither a moved line nor a new helper on the call graph shows.
// The frontier, reachable counts, line numbers and witness chains are in
// the -certify-purity artifact.
func purityPins(t *testing.T, certs *PurityCertificates) []byte {
	t.Helper()
	type exemption struct {
		Func   string `json:"func"`
		Source string `json:"source"`
		Detail string `json:"detail"`
		Reason string `json:"reason"`
	}
	type pin struct {
		Entry      string      `json:"entry"`
		Pure       bool        `json:"pure"`
		Exemptions []exemption `json:"exemptions"`
	}
	var pins []pin
	for _, cert := range certs.Entries {
		p := pin{Entry: cert.Entry, Pure: cert.Pure, Exemptions: []exemption{}}
		for _, e := range cert.Exemptions {
			p.Exemptions = append(p.Exemptions, exemption{e.Func, e.Source, e.Detail, e.Reason})
		}
		slices.SortFunc(p.Exemptions, func(a, b exemption) int {
			return cmp.Or(cmp.Compare(a.Func, b.Func), cmp.Compare(a.Source, b.Source),
				cmp.Compare(a.Detail, b.Detail), cmp.Compare(a.Reason, b.Reason))
		})
		pins = append(pins, p)
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(data, '\n')
}

// TestPurityCertificatesGolden is the drift gate: certifying the shipped
// module must reproduce the pinned projection (see purityPins)
// byte-for-byte, and every entry point must be pure. Regenerate with
// WORMLINT_UPDATE_GOLDEN=1 after an intentional change.
func TestPurityCertificatesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, pkgs := loadModule(t)
	certs, err := CertifyPurity(NewProgram(pkgs), NewPurity(), l.ModRoot)
	if err != nil {
		t.Fatalf("CertifyPurity: %v", err)
	}
	for _, cert := range certs.Entries {
		if !cert.Pure {
			t.Errorf("%s is not pure: %v", cert.Entry, cert.Violations)
		}
		if len(cert.Exemptions) == 0 {
			t.Errorf("%s has no exemptions; the store counters and worker fan-out should be on its graph", cert.Entry)
		}
	}
	data := purityPins(t, certs)
	goldenPath := filepath.Join("testdata", "purity_certificates.golden.json")
	golden, err := os.ReadFile(goldenPath)
	if err != nil && os.Getenv("WORMLINT_UPDATE_GOLDEN") == "" {
		t.Fatalf("read golden (regenerate with WORMLINT_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(data, golden) {
		if os.Getenv("WORMLINT_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Errorf("purity certificates drifted from the golden; if intentional, regenerate with WORMLINT_UPDATE_GOLDEN=1\n--- got ---\n%s", data)
	}

	// What the golden is blind to, and what it is not. A helper added under
	// an entry point moves lines, grows the frontier and may reroute a
	// witness chain; none of that needs re-approval.
	grown := *certs
	grown.Entries = append([]PurityCertificate(nil), certs.Entries...)
	e := grown.Entries[0]
	e.ReachableFunctions++
	e.Frontier.Pure = append([]string{"wormsim/internal/core.newHelper"}, e.Frontier.Pure...)
	e.Exemptions = append([]PurityEffect(nil), e.Exemptions...)
	for i := range e.Exemptions {
		e.Exemptions[i].Line += 7
		e.Exemptions[i].Witness = "Run → newHelper → " + e.Exemptions[i].Witness
	}
	grown.Entries[0] = e
	if !bytes.Equal(purityPins(t, &grown), data) {
		t.Error("a new pure helper under core.Run changed the golden projection")
	}
	// A new exemption, or an old one that lost its reason, does.
	extra := e
	extra.Exemptions = append(extra.Exemptions[:len(extra.Exemptions):len(extra.Exemptions)], PurityEffect{
		Func: "wormsim/internal/core.newHelper", Source: "wall-clock", Detail: "call to time.Now reads the wall clock", Reason: "(progress line only)",
	})
	grown.Entries[0] = extra
	if bytes.Equal(purityPins(t, &grown), data) {
		t.Error("a new exemption left the golden projection unchanged")
	}
	e.Exemptions[0].Reason = ""
	grown.Entries[0] = e
	if bytes.Equal(purityPins(t, &grown), data) {
		t.Error("an exemption that dropped its reason left the golden projection unchanged")
	}
}
