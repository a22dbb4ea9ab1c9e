package cdg

import (
	"encoding/json"
	"fmt"
	"io"

	"wormsim/internal/message"
	"wormsim/internal/routing"
	"wormsim/internal/topology"
)

// Schema identifies the certificate file format. Bump it when the
// Certificate fields change incompatibly.
const Schema = "wormsim/cdg-certificates/v1"

// Certification methods: how a cell was proven deadlock-free.
const (
	// MethodDallySeitz: the plain channel-dependency graph is acyclic, the
	// strongest criterion (applies to any routing discipline).
	MethodDallySeitz = "dally-seitz"
	// MethodDuatoEscape: the plain CDG is cyclic but the lowest-class
	// escape subfunction is acyclic; by Duato's theory the fully adaptive
	// algorithm is deadlock-free because a blocked header always has its
	// escape candidate among its choices.
	MethodDuatoEscape = "duato-escape"
	// MethodNone: no proof available — the cell is deadlock-free only if
	// its registered expectation says so (there are none such; unproven
	// cells must be registered known-cyclic or certification fails).
	MethodNone = "none"
)

// Instance is one topology point of the certification matrix.
type Instance struct {
	K    int  `json:"k"`
	N    int  `json:"n"`
	Wrap bool `json:"wrap"`
}

// Grid materializes the instance.
func (i Instance) Grid() *topology.Grid { return topology.New(i.K, i.N, !i.Wrap) }

// String renders the instance compactly, e.g. "4x4x4 torus".
func (i Instance) String() string {
	s := ""
	for d := 0; d < i.N; d++ {
		if d > 0 {
			s += "x"
		}
		s += fmt.Sprint(i.K)
	}
	if i.Wrap {
		return s + " torus"
	}
	return s + " mesh"
}

// Matrix is the certification matrix: every topology shape the simulator's
// experiments use, mesh and torus, small enough for the exact analysis.
// All radices are even so the negative-hop schemes are defined everywhere.
func Matrix() []Instance {
	return []Instance{
		{K: 4, N: 2, Wrap: false},
		{K: 4, N: 2, Wrap: true},
		{K: 8, N: 2, Wrap: false},
		{K: 8, N: 2, Wrap: true},
		{K: 4, N: 3, Wrap: false},
		{K: 4, N: 3, Wrap: true},
	}
}

// KnownCyclic reports the registered expectation that no deadlock-freedom
// proof exists for an algorithm on a mesh or torus — any other unproven
// cell fails certification.
//
// Two torus cases are registered, both documented negative findings of this
// reproduction (see the cdg package tests and DESIGN.md):
//
//   - 2pnsrc: the literal source-computed eq. (1) tag. Messages circling a
//     ring in one direction can share a tag class, so ring cycles survive
//     every class switch; the simulator genuinely deadlocks on it.
//   - 2pn: the per-hop tag. Both its full candidate set and its pinned-tag
//     escape subfunction have dependency cycles on tori, so neither the
//     Dally–Seitz nor the Duato-escape argument applies. A cycle is
//     necessary but not sufficient for deadlock, and drain stress has
//     never wedged this variant, but the certificate records the honest
//     verdict: unproven on tori.
func KnownCyclic(alg string, wrap bool) bool {
	return wrap && (alg == "2pn" || alg == "2pnsrc")
}

// escape restricts a fully adaptive algorithm to the lowest virtual-channel
// class offered per physical hop — the escape routing subfunction whose
// acyclicity certifies the full algorithm by Duato's theory. For the 2pn
// family this pins the tag's free bits to zero, Dally's 2^(n-1)-channel
// mesh scheme.
type escape struct{ routing.Algorithm }

func (e escape) Candidates(g *topology.Grid, m *message.Message, node int, dst []routing.Candidate) []routing.Candidate {
	all := e.Algorithm.Candidates(g, m, node, nil)
	for dim := 0; dim < g.N(); dim++ {
		for dir := topology.Plus; dir <= topology.Minus; dir++ {
			best := -1
			for _, c := range all {
				if c.Dim == dim && c.Dir == dir && (best < 0 || c.VC < best) {
					best = c.VC
				}
			}
			if best >= 0 {
				dst = append(dst, routing.Candidate{Dim: dim, Dir: dir, VC: best})
			}
		}
	}
	return dst
}

// Certificate records the analysis of one (algorithm, instance) cell.
type Certificate struct {
	Algorithm string `json:"algorithm"`
	Instance  string `json:"instance"`
	Grid      string `json:"grid"`
	// VCs and Edges size the plain channel-dependency graph (zero when
	// skipped); Acyclic is its verdict.
	VCs     int  `json:"vcs"`
	Edges   int  `json:"edges"`
	Acyclic bool `json:"acyclic"`
	// EscapeEdges and EscapeAcyclic report the escape-subfunction analysis,
	// run only when the plain CDG is cyclic and the algorithm is fully
	// adaptive.
	EscapeEdges   int  `json:"escape_edges,omitempty"`
	EscapeAcyclic bool `json:"escape_acyclic,omitempty"`
	// Method is how the cell was certified (dally-seitz, duato-escape) or
	// "none" when no proof applies.
	Method string `json:"method,omitempty"`
	// Certified reports a machine-checked deadlock-freedom proof; OK that
	// the outcome matches the registered expectation (KnownCyclic cells are
	// expected uncertified).
	Certified bool `json:"certified"`
	OK        bool `json:"ok"`
	// Skipped holds the incompatibility reason when the algorithm is not
	// defined on the instance (e.g. north-last beyond two dimensions).
	Skipped string `json:"skipped,omitempty"`
	// Witness is the plain-CDG cycle, one virtual channel per entry, for
	// uncertified cells.
	Witness []string `json:"witness,omitempty"`
}

// Certification is the full gate output, written to cdg_certificates.json.
type Certification struct {
	Schema       string        `json:"schema"`
	Algorithms   []string      `json:"algorithms"`
	Instances    []string      `json:"instances"`
	Certificates []Certificate `json:"certificates"`
	// Counts over cells: proven by plain Dally–Seitz, proven by Duato
	// escape, registered known-cyclic, and skipped-incompatible.
	DallySeitz  int `json:"dally_seitz"`
	DuatoEscape int `json:"duato_escape"`
	KnownCyclic int `json:"known_cyclic"`
	Skipped     int `json:"skipped"`
	// Failures lists every cell whose outcome contradicts its registered
	// expectation; AllOK reports that there are none.
	Failures []string `json:"failures,omitempty"`
	AllOK    bool     `json:"all_ok"`
}

// Certify runs the exhaustive analyzer over algs (nil means every
// registered algorithm) on the full Matrix and returns the certification.
// The output is deterministic — algorithms in sorted registry order,
// instances in Matrix order, witness cycles from the sorted DFS — so it can
// be locked by a golden file.
func Certify(algs []string) (*Certification, error) {
	if algs == nil {
		algs = routing.Names()
	}
	c := &Certification{Schema: Schema, Algorithms: algs, AllOK: true}
	for _, inst := range Matrix() {
		c.Instances = append(c.Instances, inst.String())
	}
	for _, name := range algs {
		alg, err := routing.Get(name)
		if err != nil {
			return nil, err
		}
		for _, inst := range Matrix() {
			cert, err := certifyCell(alg, inst)
			if err != nil {
				return nil, fmt.Errorf("cdg: certify %s on %s: %w", name, inst, err)
			}
			switch {
			case cert.Skipped != "":
				c.Skipped++
			case cert.Method == MethodDallySeitz:
				c.DallySeitz++
			case cert.Method == MethodDuatoEscape:
				c.DuatoEscape++
			case cert.OK:
				c.KnownCyclic++
			}
			if !cert.OK {
				c.AllOK = false
				c.Failures = append(c.Failures,
					fmt.Sprintf("%s on %s: certified=%v (method %s), expected %s",
						name, inst, cert.Certified, cert.Method, expectation(name, inst.Wrap)))
			}
			c.Certificates = append(c.Certificates, cert)
		}
	}
	return c, nil
}

// certifyCell analyzes one (algorithm, instance) cell.
func certifyCell(alg routing.Algorithm, inst Instance) (Certificate, error) {
	g := inst.Grid()
	cert := Certificate{
		Algorithm: alg.Name(),
		Instance:  inst.String(),
		Grid:      g.String(),
	}
	if err := alg.Compatible(g); err != nil {
		cert.Skipped = err.Error()
		cert.OK = true
		return cert, nil
	}
	res, err := Analyze(g, alg)
	if err != nil {
		return cert, err
	}
	cert.VCs = res.VCs
	cert.Edges = res.Edges
	cert.Acyclic = res.Acyclic()
	switch {
	case cert.Acyclic:
		cert.Method = MethodDallySeitz
		cert.Certified = true
	case alg.FullyAdaptive():
		esc, err := Analyze(g, escape{alg})
		if err != nil {
			return cert, err
		}
		cert.EscapeEdges = esc.Edges
		cert.EscapeAcyclic = esc.Acyclic()
		if cert.EscapeAcyclic {
			cert.Method = MethodDuatoEscape
			cert.Certified = true
		} else {
			cert.Method = MethodNone
		}
	default:
		cert.Method = MethodNone
	}
	if !cert.Certified {
		for _, v := range res.Cycle {
			cert.Witness = append(cert.Witness, v.Describe(g))
		}
	}
	cert.OK = cert.Certified != KnownCyclic(alg.Name(), inst.Wrap)
	return cert, nil
}

func expectation(alg string, wrap bool) string {
	if KnownCyclic(alg, wrap) {
		return "known-cyclic"
	}
	return "certified"
}

// WriteJSON writes the certification as indented JSON, the
// cdg_certificates.json format consumed by CI and the golden-file test.
func (c *Certification) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
