package lint

// EngineParity proves the scalar and batch engines implement one routing
// semantics. Every paired function — (*Network).Step vs (*BatchNetwork).Step
// and their intra-package callees — gets a semantic footprint extracted by
// the dataflow layer (dataflow.go): config/topology reads, canonical state
// writes, and program-order sequences of RNG draws, telemetry/forensics
// hooks, pool acquire/release calls, and paired/shared callees. The pass
// diffs each pair dimension by dimension and fails on any divergence not
// covered by a //lint:parity audit:
//
//	//lint:parity writes,draws reason the divergence is intentional
//
// placed in either paired declaration's doc comment. The directive audits
// exactly the named dimensions; an audit whose dimension actually matches
// is stale and becomes a finding of its own, so the audited surface can
// only shrink. CertifyParity emits the full footprint comparison as a
// machine-readable certificate set (CI pins a golden).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ParityPair names one scalar/batch function pair, by the FindFunc specs
// within the model's target package.
type ParityPair struct {
	Name   string // canonical pair name ("inject")
	Scalar string // e.g. "(*Network).inject"
	Batch  string // e.g. "(*BatchNetwork).injectR"
}

// EngineParity is the pass; see the package comment above. The zero value
// is unusable — construct with NewEngineParity or populate Model and Pairs
// (fixture tests build small models of their own).
type EngineParity struct {
	Model *EngineModel
	Pairs []ParityPair
}

// NewEngineParity returns the pass configured for wormsim's twin engines:
// every function of the scalar per-cycle decision procedure paired with its
// batch twin, over the semantic model of the network package.
func NewEngineParity() *EngineParity {
	return &EngineParity{
		Model: wormsimEngineModel(),
		Pairs: []ParityPair{
			{"Step", "(*Network).Step", "(*BatchNetwork).Step"},
			{"inject", "(*Network).inject", "(*BatchNetwork).injectR"},
			{"newInjSlot", "(*Network).newInjSlot", "(*BatchNetwork).newInjSlotR"},
			{"allocate", "(*Network).allocate", "(*BatchNetwork).allocateR"},
			{"route", "(*Network).route", "(*BatchNetwork).routeR"},
			{"transfer", "(*Network).transfer", "(*BatchNetwork).transferR"},
			{"dropReverseConflicts", "(*Network).dropReverseConflicts", "(*BatchNetwork).dropReverseConflictsR"},
			{"applyMove", "(*Network).applyMove", "(*BatchNetwork).applyMoveR"},
			{"deliver", "(*Network).deliver", "(*BatchNetwork).deliverR"},
			{"foreBlocked", "(*Network).foreBlocked", "(*BatchNetwork).foreBlockedR"},
			{"headSlotOf", "(*Network).headSlotOf", "(*BatchNetwork).headSlotOfR"},
			{"WormStates", "(*Network).WormStates", "(*BatchNetwork).WormStatesOf"},
			{"describeStuck", "(*Network).describeStuck", "(*BatchNetwork).describeStuckR"},
			{"tieBreak", "(*Network).tieBreak", "(*batchReplica).tieBreak"},
		},
	}
}

// wormsimEngineModel is the semantic model of wormsim/internal/network: how
// its state, configuration, draws and hooks appear in source on each side.
func wormsimEngineModel() *EngineModel {
	return &EngineModel{
		TargetPkg:   "wormsim/internal/network",
		ScalarTypes: []string{"Network"},
		BatchTypes:  []string{"BatchNetwork", "batchReplica"},
		CallPrefix: map[string]string{
			"wormsim/internal/telemetry.Collector":     "tel",
			"wormsim/internal/telemetry.PhaseTimer":    "prof",
			"wormsim/internal/forensics.Analyzer":      "fore",
			"wormsim/internal/rng.Stream":              "rng",
			"wormsim/internal/message.Pool":            "pool",
			"wormsim/internal/message.Message":         "msg",
			"wormsim/internal/congestion.Limiter":      "limiter",
			"wormsim/internal/routing.Algorithm":       "alg",
			"wormsim/internal/routing.SelectionPolicy": "policy",
			"wormsim/internal/traffic.Workload":        "wl",
			"wormsim/internal/topology.Grid":           "grid",
		},
		FuncLabels: map[string]string{
			"wormsim/internal/traffic.ArrivalsBatch": "traffic.ArrivalsBatch",
		},
		HookFields: map[string]string{
			"OnDeliver":   "cfg.OnDeliver",
			"OnHeaderHop": "cfg.OnHeaderHop",
			"onDeliver":   "cfg.OnDeliver",
			"onHeaderHop": "cfg.OnHeaderHop",
		},
		ConfigFields: map[string]string{
			// Config fields and the batch engine's cached copies.
			"MsgLen": "cfg.MsgLen", "msgLen": "cfg.MsgLen",
			"BufDepth": "cfg.BufDepth", "bufDepth": "cfg.BufDepth",
			"InjectionPorts": "cfg.InjectionPorts", "ports": "cfg.InjectionPorts",
			"RouteDelay": "cfg.RouteDelay", "routeDelay": "cfg.RouteDelay",
			"HalfDuplex": "cfg.HalfDuplex", "halfDuplex": "cfg.HalfDuplex",
			"WatchdogCycles": "cfg.WatchdogCycles", "watchdog": "cfg.WatchdogCycles",
			"OnDeliver": "cfg.OnDeliver", "onDeliver": "cfg.OnDeliver",
			"OnHeaderHop": "cfg.OnHeaderHop", "onHeaderHop": "cfg.OnHeaderHop",
			"Observer": "cfg.Observer",
			// Derived topology shared by both engines. chanVCs is
			// deliberately absent: it is the batch layout's injection-slot
			// boundary, with no scalar counterpart (the scalar engine tests
			// vcCh == -1 instead).
			"numVCs": "numVCs", "nDims": "nDims",
			// Route-table inputs.
			"down": "tbl.down", "rev": "tbl.rev",
			"coord": "tbl.coord", "parity": "tbl.parity",
		},
		StateCanon: map[string]string{
			// Scalar SoA arrays -> canonical VC state components.
			"vcMsg": "msg", "vcNode": "node", "vcFlits": "flits",
			"vcRecvd": "recvd", "vcSent": "sent", "vcReady": "ready",
			"vcOut": "out", "vcCh": "ch",
			"vcClass": "class", "vcAIdx": "aIdx",
			// Batch hot-state fields -> the same components.
			"hotA.out": "out", "hotA.ready": "ready", "hotA.flits": "flits",
			"hotA.recvd": "recvd", "hotA.sent": "sent", "hotA.node": "node",
			// Whole-element batch bookkeeping is active-list maintenance.
			"hotA": "active", "msgA": "msg", "occ": "active",
			// Batch slot-space growth recycles the scalar free list's role.
			"nextSlot": "injFree",
			// Writes through a *message.Message reached outside the SoA
			// arrays align with writes through vcMsg/msgA elements.
			"Message": "msg",
			// The per-replica container is transparent.
			"reps": "",
		},
		LiteralTypes: map[string]string{"vcHot": "hotA"},
		PoolCalls: map[string]bool{
			"pool.Get": true, "pool.Put": true,
			"limiter.Admit": true, "limiter.Release": true,
		},
		DrawCalls: map[string]bool{
			"wl.Arrivals": true, "traffic.ArrivalsBatch": true,
		},
		DrawPrefixes: map[string]bool{"rng": true, "policy": true},
		HookPrefixes: map[string]bool{"tel": true, "fore": true, "prof": true, "hook": true},
	}
}

// Name returns "engineparity".
func (*EngineParity) Name() string { return "engineparity" }

// Doc describes the pass.
func (*EngineParity) Doc() string {
	return "scalar/batch engine pairs must have matching semantic footprints modulo //lint:parity audits"
}

// parityAudit is one audited dimension of one pair.
type parityAudit struct {
	reason string
	pos    token.Position
}

// pairAnalysis is one pair's extracted comparison.
type pairAnalysis struct {
	pair       ParityPair
	sfp, bfp   footprint
	audits     map[string]parityAudit
	pos        token.Position // batch decl, where findings anchor
	directives []Finding      // malformed //lint:parity directives
}

// RunProgram extracts and diffs every pair's footprints.
func (p *EngineParity) RunProgram(prog *Program) []Finding {
	analyses, findings := p.analyze(prog)
	for _, pa := range analyses {
		findings = append(findings, pa.directives...)
		for _, dim := range parityDims {
			s, b := pa.sfp.dim(dim), pa.bfp.dim(dim)
			equal := stringSlicesEqual(s, b)
			audit, audited := pa.audits[dim]
			switch {
			case equal && audited:
				findings = append(findings, Finding{
					Pos:  audit.pos,
					Pass: p.Name(),
					Msg: fmt.Sprintf("stale parity audit: %s of pair %s already match; drop %q from the //lint:parity directive",
						dim, pa.pair.Name, dim),
				})
			case !equal && !audited:
				findings = append(findings, Finding{
					Pos:  pa.pos,
					Pass: p.Name(),
					Msg: fmt.Sprintf("engine pair %s diverges on %s: %s (annotate //lint:parity %s <reason> if intentional)",
						pa.pair.Name, dim, diffDim(dim, s, b), dim),
				})
			}
		}
	}
	return findings
}

// analyze resolves the pairs and extracts both footprints of each. A
// missing target package (partial load) yields no analyses; a missing pair
// function is a configuration finding.
func (p *EngineParity) analyze(prog *Program) ([]pairAnalysis, []Finding) {
	pkg := prog.Package(p.Model.TargetPkg)
	if pkg == nil {
		return nil, nil
	}
	var findings []Finding
	confFinding := func(spec string) {
		findings = append(findings, Finding{
			Pos:  pkg.Fset.Position(pkg.Files[0].Pos()),
			Pass: p.Name(),
			Msg:  fmt.Sprintf("parity pair function %s not found in %s; update the pass configuration", spec, p.Model.TargetPkg),
		})
	}

	paired := make(map[*types.Func]string)
	type resolved struct {
		pair          ParityPair
		scalar, batch *types.Func
	}
	var pairs []resolved
	for _, pair := range p.Pairs {
		scalar := prog.FindFunc(p.Model.TargetPkg, pair.Scalar)
		batch := prog.FindFunc(p.Model.TargetPkg, pair.Batch)
		if scalar == nil {
			confFinding(pair.Scalar)
		}
		if batch == nil {
			confFinding(pair.Batch)
		}
		if scalar == nil || batch == nil {
			continue
		}
		paired[scalar] = pair.Name
		paired[batch] = pair.Name
		pairs = append(pairs, resolved{pair, scalar, batch})
	}

	var analyses []pairAnalysis
	for _, r := range pairs {
		x := newExtractor(p.Model, prog, paired)
		pa := pairAnalysis{
			pair:   r.pair,
			sfp:    x.footprintOf(r.scalar),
			bfp:    x.footprintOf(r.batch),
			audits: make(map[string]parityAudit),
		}
		bdecl, bpkg := prog.decls[r.batch], prog.declPkg[r.batch]
		sdecl, spkg := prog.decls[r.scalar], prog.declPkg[r.scalar]
		pa.pos = bpkg.Fset.Position(bdecl.Name.Pos())
		for _, side := range []struct {
			decl *ast.FuncDecl
			pkg  *Package
		}{{sdecl, spkg}, {bdecl, bpkg}} {
			audits, bad := parseParityDoc(side.pkg, side.decl, r.pair.Name)
			for dim, a := range audits {
				pa.audits[dim] = a
			}
			pa.directives = append(pa.directives, bad...)
		}
		analyses = append(analyses, pa)
	}
	return analyses, findings
}

// parseParityDoc extracts //lint:parity directives from a declaration's doc
// comment: "//lint:parity <dim>[,<dim>...] <reason>". Unknown dimensions
// and missing reasons are findings.
func parseParityDoc(pkg *Package, decl *ast.FuncDecl, pairName string) (map[string]parityAudit, []Finding) {
	if decl.Doc == nil {
		return nil, nil
	}
	audits := make(map[string]parityAudit)
	var bad []Finding
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		rest, ok := strings.CutPrefix(strings.TrimSpace(text), "lint:parity")
		if !ok {
			continue
		}
		pos := pkg.Fset.Position(c.Pos())
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			bad = append(bad, Finding{Pos: pos, Pass: "engineparity",
				Msg: "malformed //lint:parity directive: want \"//lint:parity <dim>[,<dim>...] <reason>\""})
			continue
		}
		if len(fields) < 2 {
			bad = append(bad, Finding{Pos: pos, Pass: "engineparity",
				Msg: fmt.Sprintf("//lint:parity directive on pair %s needs a reason", pairName)})
		}
		reason := strings.Join(fields[1:], " ")
		for _, dim := range strings.Split(fields[0], ",") {
			if !isParityDim(dim) {
				bad = append(bad, Finding{Pos: pos, Pass: "engineparity",
					Msg: fmt.Sprintf("unknown footprint dimension %q in //lint:parity directive (want one of %s)",
						dim, strings.Join(parityDims, ", "))})
				continue
			}
			audits[dim] = parityAudit{reason: reason, pos: pos}
		}
	}
	return audits, bad
}

func isParityDim(dim string) bool {
	for _, d := range parityDims {
		if d == dim {
			return true
		}
	}
	return false
}

// diffDim renders a human-readable divergence summary for one dimension.
func diffDim(dim string, s, b []string) string {
	if dim == "reads" || dim == "writes" {
		var sOnly, bOnly []string
		inB := make(map[string]bool, len(b))
		for _, v := range b {
			inB[v] = true
		}
		inS := make(map[string]bool, len(s))
		for _, v := range s {
			inS[v] = true
		}
		for _, v := range s {
			if !inB[v] {
				sOnly = append(sOnly, v)
			}
		}
		for _, v := range b {
			if !inS[v] {
				bOnly = append(bOnly, v)
			}
		}
		var parts []string
		if len(sOnly) > 0 {
			parts = append(parts, "scalar-only ["+strings.Join(sOnly, " ")+"]")
		}
		if len(bOnly) > 0 {
			parts = append(parts, "batch-only ["+strings.Join(bOnly, " ")+"]")
		}
		return strings.Join(parts, ", ")
	}
	return "scalar [" + seqSummary(s) + "] vs batch [" + seqSummary(b) + "]"
}

// seqSummary caps long event sequences in finding messages.
func seqSummary(seq []string) string {
	const limit = 12
	if len(seq) <= limit {
		return strings.Join(seq, " ")
	}
	return strings.Join(seq[:limit], " ") + fmt.Sprintf(" ... +%d", len(seq)-limit)
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ParitySchema versions the parity-certificate format.
const ParitySchema = "wormsim/parity-certificates/v1"

// ParityCertificates is the artifact cmd/wormlint -certify-parity emits and
// CI pins against internal/lint/testdata/parity_certificates.golden.json:
// one certificate per engine pair, plus a content signature.
type ParityCertificates struct {
	Schema string              `json:"schema"`
	Module string              `json:"module"`
	Pairs  []ParityCertificate `json:"pairs"`
	// Signature is sha256 over the canonical JSON of Pairs.
	Signature string `json:"signature"`
}

// ParityCertificate is the proof record for one scalar/batch pair: the full
// footprint comparison, dimension by dimension.
type ParityCertificate struct {
	// Pair is the canonical pair name, Scalar/Batch the function specs.
	Pair   string `json:"pair"`
	Scalar string `json:"scalar"`
	Batch  string `json:"batch"`
	// Status is "proven" when every dimension matches, "audited" when every
	// divergence carries a //lint:parity reason, "divergent" otherwise (a
	// certificate set with a divergent pair fails certification).
	Status string `json:"status"`
	// Dimensions lists all six footprint dimensions in canonical order.
	Dimensions []ParityDimension `json:"dimensions"`
}

// ParityDimension records one dimension's comparison: the shared trace when
// proven, both traces and the audit reason when they diverge.
type ParityDimension struct {
	Name        string   `json:"name"`
	Status      string   `json:"status"` // proven | audited | divergent
	Trace       []string `json:"trace,omitempty"`
	ScalarTrace []string `json:"scalar_trace,omitempty"`
	BatchTrace  []string `json:"batch_trace,omitempty"`
	Reason      string   `json:"reason,omitempty"`
}

// CertifyParity extracts every pair's footprints and builds the certificate
// set. Unlike the lint pass — which skips when the target package is outside
// a partial load — certification demands the engines: a missing pair is an
// error, not a clean certificate.
func CertifyParity(prog *Program, pass *EngineParity, modRoot string) (*ParityCertificates, error) {
	if prog.Package(pass.Model.TargetPkg) == nil {
		return nil, fmt.Errorf("lint: parity target package %s not loaded (certification requires the engines)", pass.Model.TargetPkg)
	}
	analyses, confFindings := pass.analyze(prog)
	if len(confFindings) > 0 {
		return nil, fmt.Errorf("lint: %s", confFindings[0].Msg)
	}
	certs := &ParityCertificates{
		Schema: ParitySchema,
		Module: prog.modulePrefix(),
	}
	for _, pa := range analyses {
		cert := ParityCertificate{
			Pair:   pa.pair.Name,
			Scalar: pa.pair.Scalar,
			Batch:  pa.pair.Batch,
			Status: "proven",
		}
		for _, dim := range parityDims {
			s, b := pa.sfp.dim(dim), pa.bfp.dim(dim)
			pd := ParityDimension{Name: dim}
			if stringSlicesEqual(s, b) {
				pd.Status = "proven"
				pd.Trace = s
			} else if audit, ok := pa.audits[dim]; ok {
				pd.Status = "audited"
				pd.ScalarTrace = s
				pd.BatchTrace = b
				pd.Reason = audit.reason
				if cert.Status == "proven" {
					cert.Status = "audited"
				}
			} else {
				pd.Status = "divergent"
				pd.ScalarTrace = s
				pd.BatchTrace = b
				cert.Status = "divergent"
			}
			cert.Dimensions = append(cert.Dimensions, pd)
		}
		certs.Pairs = append(certs.Pairs, cert)
	}
	sort.Slice(certs.Pairs, func(i, j int) bool { return certs.Pairs[i].Pair < certs.Pairs[j].Pair })
	blob, err := json.Marshal(certs.Pairs)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(blob)
	certs.Signature = "sha256:" + hex.EncodeToString(sum[:])
	return certs, nil
}
