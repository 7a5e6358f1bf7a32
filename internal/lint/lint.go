// Package lint implements polarvet, the repository's static analyzer.
//
// The simulation's results are only meaningful while a handful of
// architectural invariants hold: all cross-node interaction flows through
// internal/rdma (never shared Go pointers), all simulated delay flows
// through the fabric latency model, and node-local latches are never held
// across simulated network latency. Nothing in the compiler enforces any
// of that, so this package does. One file per analyzer:
//
//   - nosleep (nosleep.go): time.Sleep outside the latency model
//   - layering (layering.go): the allowed package-import DAG
//   - errdrop (errdrop.go): discarded errors from rdma/rmem/polarfs/
//     plog/parallelraft
//   - pairing (pairing.go): acquire/release matching (MTR commit, page
//     pins, PL latches, endpoint attach) along every path of a function
//   - regionescape (regionescape.go): registered-region byte aliases
//     must not escape the accessor scope
//   - verbdeadline (verbdeadline.go): fabric waits in engine/cluster
//     must be deadline- or window-bounded
//   - lockorder (lockorder.go): held-lock sets propagated
//     interprocedurally; reports cycles in the global lock-acquisition
//     order (potential deadlocks) and fabric verbs reached while a
//     node-local latch class is held, in the same body or through any
//     call path
//   - fabriccost (fabriccost.go): per-function verb costs with
//     CFG-derived loop multiplicity, propagated over the call graph;
//     reports loop-carried RPC fan-out and violations of declared
//     //polarvet:fabric round-trip budgets
//
// The last five are flow analyses, and they share one core (flow.go): a
// run builds one program — the module call graph (callgraph.go) and each
// function body's CFG (cfg.go) and classified call sites, computed once —
// and each analyzer is a lattice on its one worklist (forward) and its one
// call-graph fixpoint (summarize). Run returns one Result from that single
// solve: the findings, plus the lock graph and the fabric-cost table as
// views. A finding is suppressed by an adjacent directive comment
//
//	//polarvet:allow <analyzer> <reason>
//
// on the same line as the finding or on the line directly above it. The
// reason is mandatory; a directive without one is itself reported, as
// are directives naming an unknown analyzer and directives that no
// longer suppress anything (so stale allows cannot linger).
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one invariant check over the program: every loaded package
// (the pattern selection and its dependency closure) with the shared
// per-function analysis state of flow.go. Run keeps only the findings that
// land in a selected package.
type Analyzer interface {
	Name() string
	Check(prog *program) []Finding
}

// Analyzers returns the full analyzer set, in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{NoSleep{}, Layering{}, ErrDrop{}, Pairing{}, RegionEscape{}, VerbDeadline{}, LockOrder{}, FabricCost{}}
}

// Result is the outcome of one Run: the surviving findings, plus the lock
// graph and the fabric-cost table as views (LockGraph, FabricReport) of
// the same solved program.
type Result struct {
	Findings []Finding
	prog     *program
}

// Run loads every package matching patterns, builds the program once and
// applies the analyzers, returning surviving (non-suppressed) findings
// sorted by position.
func Run(mod *Module, patterns []string, analyzers []Analyzer) (*Result, error) {
	paths, err := mod.Packages(patterns...)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name()] = true
	}
	// Load everything first: the program needs the whole selection (and
	// its dependency closure) before summaries can link across packages,
	// and directives from every file must be known before any finding is
	// filtered.
	var pkgs []*Package
	allows := allowSet{}
	var out []Finding
	for _, path := range paths {
		p, err := mod.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
		as, bad := directives(p)
		out = append(out, bad...)
		for key, lines := range as {
			if allows[key] == nil {
				allows[key] = lines
				continue
			}
			for line, d := range lines {
				allows[key][line] = d
			}
		}
	}
	prog := newProgram(pkgs)
	for _, a := range analyzers {
		for _, f := range a.Check(prog) {
			if prog.selected(f.Pos) && !allows.covers(a.Name(), f.Pos) {
				out = append(out, f)
			}
		}
	}
	out = append(out, allows.audit(known, ran)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return &Result{Findings: out, prog: prog}, nil
}

// directivePrefix introduces an allowlist comment.
const directivePrefix = "//polarvet:allow"

// allowDirective is one parsed //polarvet:allow comment.
type allowDirective struct {
	analyzer string
	pos      token.Position
	used     bool
}

// allowSet records, per file and analyzer, the lines carrying an allow
// directive. A directive covers its own line and the following line, so
// it can sit at the end of the offending line or alone just above it.
type allowSet map[string]map[int]*allowDirective // "analyzer\x00filename" -> line -> directive

func (s allowSet) covers(analyzer string, pos token.Position) bool {
	lines := s[analyzer+"\x00"+pos.Filename]
	hit := false
	for _, l := range []int{pos.Line, pos.Line - 1} {
		if d := lines[l]; d != nil {
			d.used = true
			hit = true
		}
	}
	return hit
}

// audit reports directives that name an analyzer polarvet does not
// have, and directives that suppressed nothing on this run (only for
// analyzers that actually ran, so a partial -analyzers run doesn't
// flag the others' allows).
func (s allowSet) audit(known, ran map[string]bool) []Finding {
	var out []Finding
	for _, lines := range s {
		for _, d := range lines {
			switch {
			case !known[d.analyzer]:
				out = append(out, Finding{
					Analyzer: "directive",
					Pos:      d.pos,
					Message:  fmt.Sprintf("//polarvet:allow names unknown analyzer %q", d.analyzer),
				})
			case ran[d.analyzer] && !d.used:
				out = append(out, Finding{
					Analyzer: "directive",
					Pos:      d.pos,
					Message:  fmt.Sprintf("unused //polarvet:allow %s: the analyzer reports nothing here; delete the stale directive", d.analyzer),
				})
			}
		}
	}
	return out
}

// directives collects the allow directives of a package; malformed ones
// (unknown shape or missing reason) come back as findings.
func directives(p *Package) (allowSet, []Finding) {
	set := allowSet{}
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(c.Text, directivePrefix))
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "malformed //polarvet:allow: want \"//polarvet:allow <analyzer> <reason>\" with a non-empty reason",
					})
					continue
				}
				key := fields[0] + "\x00" + pos.Filename
				if set[key] == nil {
					set[key] = map[int]*allowDirective{}
				}
				set[key][pos.Line] = &allowDirective{analyzer: fields[0], pos: pos}
			}
		}
	}
	return set, bad
}
