package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
)

// FuncRef names one function in one package, in the "Func" /
// "(Recv).Func" / "(*Recv).Func" spec syntax FindFunc resolves.
type FuncRef struct {
	Pkg  string
	Func string
}

// Purity proves the run store's central assumption: that a Result is a pure
// function of its Config, so serving a cache hit is indistinguishable from
// rerunning the simulation. The pass classifies every function reachable
// from the run entry points on the effect lattice of effects.go (pure <
// read-only < impure) by propagating local effect facts over the
// cross-package call graph, and reports each reachable impurity — a write
// to a package-level var, a wall-clock or rand read, filesystem/network
// I/O, map-iteration order escaping, an atomic store, or select/channel/
// goroutine scheduling nondeterminism — with the witness chain that reaches
// it.
//
// Accepted effects (an observability counter, the sweep's worker fan-out)
// are annotated in place with //lint:allow purity and a reason; CertifyPurity
// then records every such exemption, with its reason and witness chain, in
// the machine-readable purity certificates that CI pins against a golden
// (cmd/wormlint -certify-purity).
//
// Stated boundary: calls through plain function values — the Config.OnTick/
// OnSample/OnDeliver hooks — have no static callee and are not followed.
// That boundary is sound for the cache contract because hooks are
// observe-only by contract: what the engine lends them is valid for the
// duration of the call only (see network.Config.OnDeliver), and the
// observatory's TestObservedRunIsBitIdentical holds a run with every hook
// attached bit-identical to a bare one, so a hook can watch a run but not
// steer it.
type Purity struct {
	// Entries are the certified entry points; every impurity reachable from
	// any of them is a finding unless annotated.
	Entries []FuncRef
}

// NewPurity certifies the four run entry points: the bare engine run, the
// cache-consulting run, and the two sweep drivers.
func NewPurity() *Purity {
	const core = "wormsim/internal/core"
	return &Purity{Entries: []FuncRef{
		{Pkg: core, Func: "Run"},
		{Pkg: core, Func: "RunCached"},
		{Pkg: core, Func: "Sweep"},
		{Pkg: core, Func: "SweepReplicated"},
	}}
}

// Name returns "purity".
func (*Purity) Name() string { return "purity" }

// Doc describes the pass.
func (*Purity) Doc() string {
	return "prove runs are pure functions of their configs: no unannotated effect reachable from Run/RunCached/Sweep/SweepReplicated"
}

// RunProgram reports every impurity reachable from the entry points.
// Findings at the same site for the same source are deduplicated across
// entries (the sweep drivers reach almost everything Run reaches).
func (pu *Purity) RunProgram(prog *Program) []Finding {
	effects := prog.effectsIndex()
	var out []Finding
	type site struct {
		file   string
		line   int
		source string
	}
	seen := make(map[site]bool)
	for _, entry := range pu.Entries {
		p := prog.Package(entry.Pkg)
		if p == nil {
			continue // single-package run: the entry's package is not loaded
		}
		root := prog.FindFunc(entry.Pkg, entry.Func)
		if root == nil {
			out = append(out, p.finding(pu.Name(), p.Files[0],
				"purity entry point %s not found in %s; update the pass configuration", entry.Func, entry.Pkg))
			continue
		}
		reach := prog.Graph().ReachableFrom(root)
		forEachReachableDecl(prog, reach, func(q *Package, fd *ast.FuncDecl, fn *types.Func) {
			fe := effects[fn]
			if fe == nil || len(fe.impurities) == 0 {
				return
			}
			chain := reach.Chain(fn, q)
			for _, imp := range fe.impurities {
				k := site{imp.pos.Filename, imp.pos.Line, imp.source}
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, Finding{
					Pos:  imp.pos,
					Pass: pu.Name(),
					Msg: fmt.Sprintf("%s on the certified-pure path (reachable via %s); a cached Result must replay exactly — remove the effect or //lint:allow purity with a reason",
						imp.detail, chain),
				})
			}
		})
	}
	return out
}

// forEachReachableDecl visits every reached declared function in
// deterministic order, scanning the program's cached declaration list.
func forEachReachableDecl(prog *Program, reach *Reach, visit func(*Package, *ast.FuncDecl, *types.Func)) {
	for _, e := range prog.funcDecls() {
		if reach.Set[e.Fn] {
			visit(e.Pkg, e.Decl, e.Fn)
		}
	}
}

// PurityCertificates is the artifact cmd/wormlint -certify-purity emits and
// CI pins against internal/lint/testdata/purity_certificates.golden.json:
// one certificate per run entry point, plus a content signature so a
// certificate set can be referenced compactly.
type PurityCertificates struct {
	Schema  string              `json:"schema"`
	Module  string              `json:"module"`
	Entries []PurityCertificate `json:"entries"`
	// Signature is sha256 over the canonical JSON of Entries.
	Signature string `json:"signature"`
}

// PuritySchema versions the certificate format.
const PuritySchema = "wormsim/purity-certificates/v1"

// PurityCertificate is the proof record for one entry point: whether it is
// pure modulo annotated exemptions, the classified frontier of every
// reachable function, and each exemption with its witness chain.
type PurityCertificate struct {
	// Entry is the certified function, "pkgpath.Func".
	Entry string `json:"entry"`
	// Pure is true when no unannotated impurity is reachable: every effect
	// on the entry's call graph is either absent or a recorded exemption.
	Pure bool `json:"pure"`
	// ReachableFunctions counts the declared functions on the entry's call
	// graph (the frontier's total size).
	ReachableFunctions int `json:"reachable_functions"`
	// Frontier classifies every reachable function. "pure" compute only
	// from their arguments; "read_only" observe shared state or call a
	// function with a recorded effect; "impure" carry a local effect
	// themselves (each of which is listed under exemptions or violations).
	Frontier PurityFrontier `json:"frontier"`
	// Exemptions are the annotated, accepted impurities on this entry's
	// call graph — the "modulo" in "pure modulo annotated exemptions".
	Exemptions []PurityEffect `json:"exemptions"`
	// Violations are unannotated impurities; a certificate with violations
	// fails certification.
	Violations []PurityEffect `json:"violations,omitempty"`
}

// PurityFrontier groups the reachable functions by inferred effect class.
type PurityFrontier struct {
	Pure     []string `json:"pure"`
	ReadOnly []string `json:"read_only"`
	Impure   []string `json:"impure"`
}

// PurityEffect is one concrete effect site: where it is, what kind of
// impurity, why it is accepted (exemptions), and how the entry reaches it.
type PurityEffect struct {
	Func    string `json:"func"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Source  string `json:"source"`
	Detail  string `json:"detail"`
	Reason  string `json:"reason,omitempty"`
	Witness string `json:"witness"`
}

// CertifyPurity runs the effect analysis over the loaded program and builds
// the certificate set for pu's entry points. Unlike the lint pass — which
// skips entries whose package is outside a partial load — certification
// demands the whole module: a missing entry point is an error, not a clean
// certificate. File paths are recorded relative to modRoot with forward
// slashes.
func CertifyPurity(prog *Program, pu *Purity, modRoot string) (*PurityCertificates, error) {
	effects := prog.effectsIndex()
	g := prog.Graph()

	// Transitive classification, entry-independent: a function is read-only
	// if it observes shared state itself or can reach a function with a
	// recorded effect; impure if it carries a local effect.
	genImp := make(map[*types.Func]bool, len(effects))
	genRead := make(map[*types.Func]bool, len(effects))
	for fn, fe := range effects {
		genImp[fn] = len(fe.impurities) > 0
		genRead[fn] = fe.readsShared
	}
	impUp := g.PropagateUp(genImp)
	readUp := g.PropagateUp(genRead)

	certs := &PurityCertificates{
		Schema: PuritySchema,
		Module: prog.modulePrefix(),
	}
	for _, entry := range pu.Entries {
		entryPkg := prog.Package(entry.Pkg)
		if entryPkg == nil {
			return nil, fmt.Errorf("lint: purity entry package %s not loaded (certification requires the whole module)", entry.Pkg)
		}
		root := prog.FindFunc(entry.Pkg, entry.Func)
		if root == nil {
			return nil, fmt.Errorf("lint: purity entry point %s not found in %s", entry.Func, entry.Pkg)
		}
		reach := g.ReachableFrom(root)
		cert := PurityCertificate{
			Entry:      entry.Pkg + "." + entry.Func,
			Pure:       true,
			Exemptions: []PurityEffect{},
		}
		forEachReachableDecl(prog, reach, func(q *Package, fd *ast.FuncDecl, fn *types.Func) {
			cert.ReachableFunctions++
			name := q.Path + "." + funcDeclName(fd)
			fe := effects[fn]
			switch {
			case fe != nil && len(fe.impurities) > 0:
				cert.Frontier.Impure = append(cert.Frontier.Impure, name)
				witness := reach.Chain(fn, entryPkg)
				for _, imp := range fe.impurities {
					eff := PurityEffect{
						Func:    name,
						File:    relTo(modRoot, imp.pos.Filename),
						Line:    imp.pos.Line,
						Source:  imp.source,
						Detail:  imp.detail,
						Witness: witness,
					}
					if prog.Allowed(pu.Name(), imp.pos) {
						eff.Reason = prog.AllowReason(pu.Name(), imp.pos)
						cert.Exemptions = append(cert.Exemptions, eff)
					} else {
						cert.Pure = false
						cert.Violations = append(cert.Violations, eff)
					}
				}
			case impUp[fn] || readUp[fn]:
				cert.Frontier.ReadOnly = append(cert.Frontier.ReadOnly, name)
			default:
				cert.Frontier.Pure = append(cert.Frontier.Pure, name)
			}
		})
		sort.Strings(cert.Frontier.Pure)
		sort.Strings(cert.Frontier.ReadOnly)
		sort.Strings(cert.Frontier.Impure)
		sortEffects(cert.Exemptions)
		sortEffects(cert.Violations)
		certs.Entries = append(certs.Entries, cert)
	}

	canon, err := json.Marshal(certs.Entries)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	certs.Signature = "sha256:" + hex.EncodeToString(sum[:])
	return certs, nil
}

// sortEffects orders effect records by file, line, source and detail.
func sortEffects(effs []PurityEffect) {
	sort.Slice(effs, func(i, j int) bool {
		a, b := effs[i], effs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Detail < b.Detail
	})
}

// relTo renders name relative to root with forward slashes, so the
// certificate is machine-independent.
func relTo(root, name string) string {
	if root == "" {
		return filepath.ToSlash(name)
	}
	if rel, err := filepath.Rel(root, name); err == nil && !filepath.IsAbs(rel) {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}
