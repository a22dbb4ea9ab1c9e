package lint

import (
	"cmp"
	"fmt"
	"slices"
)

// FuncRef names one function in one package, in the "Func" /
// "(Recv).Func" / "(*Recv).Func" spec syntax FindFunc resolves.
type FuncRef struct {
	Pkg  string
	Func string
}

// Purity proves the run store's central assumption: that a Result is a pure
// function of its Config, so serving a cache hit is indistinguishable from
// rerunning the simulation. The pass propagates the local effect facts of
// effects.go over the cross-package call graph and reports each impurity
// reachable from the run entry points — a write to a package-level var, a
// wall-clock or rand read, filesystem/network I/O, map-iteration order
// escaping, an atomic store, or select/channel/goroutine scheduling
// nondeterminism — with the witness chain that reaches it.
//
// Accepted effects (an observability counter, the sweep's worker fan-out)
// are annotated in place with //lint:allow purity and a reason. Those
// annotations are the pass's exemption list: an entry point is pure when
// every effect it reaches is one of them, and TestPurityCertificatesGolden
// pins the list, reasons included, so a new exemption needs review.
//
// The bug only this pass catches (DESIGN.md §5's mutation matrix, P1; the
// puritybad fixture's defaults): an environment read in
// core.Config.ApplyDefaults, which every test process shares.
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
// cache-consulting run and the two grids, the replicated sweep and the
// figure.
func NewPurity() *Purity {
	const core = "wormsim/internal/core"
	return &Purity{Entries: []FuncRef{
		{Pkg: core, Func: "Run"},
		{Pkg: core, Func: "RunCached"},
		{Pkg: core, Func: "SweepReplicated"},
		{Pkg: core, Func: "RunFigure"},
	}}
}

// Name returns "purity".
func (*Purity) Name() string { return "purity" }

// Doc describes the pass.
func (*Purity) Doc() string {
	return "prove runs are pure functions of their configs: no unannotated effect reachable from Run/RunCached/SweepReplicated/RunFigure"
}

// reachedImpurity is one impurity on an entry point's call graph: the fact,
// the declaring function ("pkgpath.Func") and the witness chain to it.
type reachedImpurity struct {
	impurity
	fn, chain string
}

// entryReach is what one entry point's call graph reaches.
type entryReach struct {
	entry string // "pkgpath.Func"
	imps  []reachedImpurity
}

// walk is the one purity walk, over (entry point × reachable impurity), that
// RunProgram and exemptions both read. Entries whose package is not loaded
// are skipped; a missing entry point comes back as a finding.
func (pu *Purity) walk(prog *Program) ([]entryReach, []Finding) {
	effects := prog.effectsIndex()
	var reached []entryReach
	var missing []Finding
	for _, entry := range pu.Entries {
		p := prog.Package(entry.Pkg)
		if p == nil {
			continue // single-package run: the entry's package is not loaded
		}
		root := prog.FindFunc(entry.Pkg, entry.Func)
		if root == nil {
			missing = append(missing, p.finding(pu.Name(), p.Files[0],
				"purity entry point %s not found in %s; update the pass configuration", entry.Func, entry.Pkg))
			continue
		}
		er := entryReach{entry: entry.Pkg + "." + entry.Func}
		reach := prog.Graph().ReachableFrom(root)
		for _, e := range prog.funcDecls() {
			imps := effects[e.Fn].impurities
			if !reach.Set[e.Fn] || len(imps) == 0 {
				continue
			}
			name, chain := e.Pkg.Path+"."+funcDeclName(e.Decl), reach.Chain(e.Fn, e.Pkg)
			for _, imp := range imps {
				er.imps = append(er.imps, reachedImpurity{imp, name, chain})
			}
		}
		reached = append(reached, er)
	}
	return reached, missing
}

// RunProgram reports every impurity reachable from the entry points.
// Findings at the same site for the same source are deduplicated across
// entries (the sweep drivers reach almost everything Run reaches).
func (pu *Purity) RunProgram(prog *Program) []Finding {
	reached, out := pu.walk(prog)
	type site struct {
		file   string
		line   int
		source string
	}
	seen := make(map[site]bool)
	for _, er := range reached {
		for _, r := range er.imps {
			k := site{r.pos.Filename, r.pos.Line, r.source}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, Finding{
				Pos:  r.pos,
				Pass: pu.Name(),
				Msg: fmt.Sprintf("%s on the certified-pure path (reachable via %s); a cached Result must replay exactly — remove the effect or //lint:allow purity with a reason",
					r.detail, r.chain),
			})
		}
	}
	return out
}

// entryExemptions is the purity verdict on one entry point: pure when every
// effect it reaches is annotated, and the annotated effects themselves.
type entryExemptions struct {
	Entry      string      `json:"entry"`
	Pure       bool        `json:"pure"`
	Exemptions []exemption `json:"exemptions"`
}

// exemption is one annotated effect. It carries no line or witness chain,
// so moving code or adding a helper under an entry point leaves it alone.
type exemption struct {
	Func   string `json:"func"`
	Source string `json:"source"`
	Detail string `json:"detail"`
	Reason string `json:"reason"`
}

// exemptions lists, per entry point, the annotated effects its purity rests
// on, sorted by function, source, detail and reason.
func (pu *Purity) exemptions(prog *Program) []entryExemptions {
	reached, _ := pu.walk(prog)
	out := make([]entryExemptions, 0, len(reached))
	for _, er := range reached {
		ee := entryExemptions{Entry: er.entry, Pure: true, Exemptions: []exemption{}}
		for _, r := range er.imps {
			reason, ok := prog.allow[allowKey{file: r.pos.Filename, line: r.pos.Line, pass: pu.Name()}]
			if !ok {
				ee.Pure = false
				continue
			}
			ee.Exemptions = append(ee.Exemptions, exemption{r.fn, r.source, r.detail, reason})
		}
		slices.SortFunc(ee.Exemptions, func(a, b exemption) int {
			return cmp.Or(cmp.Compare(a.Func, b.Func), cmp.Compare(a.Source, b.Source),
				cmp.Compare(a.Detail, b.Detail), cmp.Compare(a.Reason, b.Reason))
		})
		out = append(out, ee)
	}
	return out
}
