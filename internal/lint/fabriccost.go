package lint

// fabriccost is the whole-module fabric-cost analysis. Every simulated
// network round trip in the repository is an *rdma.Endpoint verb — an RPC
// (Call/CallTimeout, which occupies the remote CPU) or a one-sided verb
// (Read/Write/CAS64/FetchAdd64/Load64, which bypasses it) — and the
// recorded benches show the fabric is RPC-dominated. This analysis makes
// the round-trip budget of every function a checked artifact instead of
// tribal knowledge:
//
//   - Per-function summaries. For each function scope (declared functions
//     and function literals) the analysis records which verbs the body
//     issues directly, with a loop multiplicity — O(1), or O(n) when the
//     issuing block sits on a CFG cycle — and which module functions it
//     calls, resolved through the call graph in callgraph.go. A monotone
//     interprocedural fixpoint then folds callee costs into callers: a
//     callee verb reached from a call inside a loop is promoted to O(n).
//     Cycles that only retry are not fan-out: a strongly connected
//     component that advances a retry.Backoff, or whose loops are all
//     bounded by an integer constant (`for i := 0; i < 10; i++`), keeps
//     multiplicity O(1).
//
//   - Loop-carried fan-out findings. An RPC issued per-iteration of a
//     range loop — directly, or through a callee whose whole transitive
//     cost is a single round trip — is the batchable shape: n round
//     trips where one batched request would do (§3.1.4's invalidation
//     fan-out is the canonical instance). Range loops iterate data
//     (nodes, pages, holders); counted and backoff loops are retries and
//     are not reported.
//
//   - Budget directives. A hot-path function declares its round-trip
//     budget in its doc comment:
//
//	//polarvet:fabric O(1)|O(n)|none [rationale]
//
//     and the analysis enforces the declaration *exactly* against the
//     computed transitive worst cost: a function that grew a loop-carried
//     verb violates its budget, and a budget looser than the computed
//     cost is reported too, so the declared table (mirrored in DESIGN.md
//     and pinned by docdrift_test.go) never drifts from reality.
//
//   - Deadline findings, in the layers that must stay responsive while a
//     peer is dead (internal/engine and internal/cluster; §5: an RO
//     promotion cannot wait on the crashed RW). A bare Endpoint.Call has
//     no deadline and can wedge on a dead handler; CallTimeout is the
//     bounded form. A fabric-waiting call — a verb, or a call whose
//     target reaches one — on a CFG cycle that neither terminates nor can
//     be cancelled (see cycleBound) is an unbounded retry. A single
//     one-sided verb fails fast on a dead node, so straight-line code
//     needs no deadline.
//
// Like every module analysis, propagation under-approximates unknown
// code: calls that do not resolve to a module body contribute nothing,
// and goroutines spawned with `go` do not bill the spawner (their cost is
// not on the caller's latency path). The cost facts belong to the program
// (flow.go): lockorder's held-across-fabric findings and the deadline
// rule read "does this function reach a verb" from them, and polarvet
// -json dumps the full per-function table.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FabricCost is the module-wide fabric-cost analyzer.
type FabricCost struct{}

// Name implements Analyzer.
func (FabricCost) Name() string { return "fabriccost" }

// Check implements Analyzer: malformed budget directives, loop-carried
// fan-out sites, budgets that disagree with the computed cost, and
// fabric waits without a deadline.
func (FabricCost) Check(prog *program) []Finding {
	fab := prog.fabric
	out := append([]Finding(nil), fab.bad...)
	for _, f := range prog.funcs {
		if !exemptFromLocking(f.pkg.Path) {
			out = append(out, fab.fanOutFindings(f)...)
		}
		if mustStayResponsive(f.pkg.Path) {
			out = append(out, fab.deadlineFindings(f)...)
		}
	}
	return append(out, fab.budgetFindings()...)
}

// mustStayResponsive reports the layers the deadline findings police.
func mustStayResponsive(path string) bool {
	return strings.HasSuffix(path, "internal/engine") || strings.HasSuffix(path, "internal/cluster")
}

// fcCost is the loop-multiplicity lattice: none < O(1) < O(n).
type fcCost uint8

const (
	fcNone fcCost = iota
	fcOne
	fcMany
)

func (c fcCost) String() string {
	switch c {
	case fcOne:
		return "O(1)"
	case fcMany:
		return "O(n)"
	}
	return "none"
}

// rpcVerbs are the verbs that occupy the remote CPU; the remaining
// fabricVerbs entries are one-sided.
var rpcVerbs = map[string]bool{"Call": true, "CallTimeout": true}

// fcFact is the transitive cost of one verb name in one scope, with the
// witness chain down to an issuing site.
type fcFact struct {
	cost fcCost
	wit  witness
}

// fcBudget is one parsed //polarvet:fabric declaration.
type fcBudget struct {
	level fcCost
	pos   token.Position
}

// fabricFacts is the program's fabric knowledge: every scope's transitive
// verb costs and the declared budgets.
type fabricFacts struct {
	prog    *program
	cost    map[*funcInfo]map[string]*fcFact
	budgets map[*funcInfo]fcBudget
	bad     []Finding // malformed / dangling budget directives
}

// solveFabric parses the budget directives and runs the interprocedural
// cost fixpoint over every scope (declarations and literals; rdma
// implements the verbs and lint analyzes them, so both are exempt).
func solveFabric(prog *program) *fabricFacts {
	fab := &fabricFacts{prog: prog, cost: map[*funcInfo]map[string]*fcFact{}, budgets: map[*funcInfo]fcBudget{}}
	for _, p := range prog.pkgs {
		if exemptFromLocking(p.Path) {
			continue
		}
		budgets, bad := fabricBudgets(p)
		fab.bad = append(fab.bad, bad...)
		for fd, b := range budgets {
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok && prog.decls[fn] != nil {
				fab.budgets[prog.decls[fn]] = b
			}
		}
	}
	summarize(prog.funcs, fab.cost, func(f *funcInfo) (map[string]*fcFact, bool) {
		if exemptFromLocking(f.pkg.Path) {
			return nil, false
		}
		return fab.transfer(f)
	})
	return fab
}

// transfer folds the scope's call sites into its cost map: direct verbs
// first, then literals invoked in place, then resolved callees, each at
// O(n) when the site is loop-carried. Spawned calls do not bill the
// spawner. Witnesses are first-wins per verb at a given level and replaced
// when the level rises, so the recorded path always explains the final
// cost — and a verb the body issues itself is explained by that site
// before any callee's.
func (fab *fabricFacts) transfer(f *funcInfo) (map[string]*fcFact, bool) {
	m := fab.cost[f]
	if m == nil {
		m = map[string]*fcFact{}
	}
	changed := false
	join := func(verb string, c fcCost, cs *callSite, next *funcInfo) {
		if cs.looped {
			c = fcMany
		}
		if old := m[verb]; old == nil || c > old.cost {
			m[verb] = &fcFact{cost: c, wit: witness{site: cs.call.Pos(), next: next}}
			changed = true
		}
	}
	for _, cs := range f.calls {
		if cs.verb != "" && !cs.spawned {
			join(cs.verb, fcOne, cs, nil)
		}
	}
	for _, cs := range f.calls {
		if cs.verb == "" && cs.lit != nil && !cs.spawned {
			for verb, cf := range fab.cost[cs.lit] {
				join(verb, cf.cost, cs, cs.lit)
			}
		}
	}
	for _, cs := range f.calls {
		if cs.verb == "" && cs.lit == nil && !cs.spawned {
			for _, t := range cs.targets {
				for verb, cf := range fab.cost[t] {
					join(verb, cf.cost, cs, t)
				}
			}
		}
	}
	return m, changed
}

// reaches reports whether f transitively issues a fabric verb.
func (fab *fabricFacts) reaches(f *funcInfo) bool { return len(fab.cost[f]) > 0 }

// path renders the witness chain of verb from f down to an issuing site,
// "via A → B → Read at file:line". head, when non-nil, is named first (a
// caller explaining why its callee f reaches the fabric passes f).
func (fab *fabricFacts) path(head, f *funcInfo, verb string) string {
	link := func(f *funcInfo) *witness {
		if cf := fab.cost[f][verb]; cf != nil {
			return &cf.wit
		}
		return nil
	}
	return fab.prog.via(head, link(f), link, func(pos token.Position) string {
		return fmt.Sprintf("%s at %s", verb, pos)
	})
}

// worstCost is the scope-wide worst level and the verb witnessing it.
func worstCost(m map[string]*fcFact) (fcCost, string) {
	worst, verb := fcNone, ""
	for _, name := range sortedVerbs(m) {
		if f := m[name]; f.cost > worst {
			worst, verb = f.cost, name
		}
	}
	return worst, verb
}

func sortedVerbs(m map[string]*fcFact) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ---- budget directives ----

// fabricDirectivePrefix introduces a fabric budget declaration.
const fabricDirectivePrefix = "//polarvet:fabric"

// fabricBudgets parses the package's //polarvet:fabric directives. A
// directive lives in the doc comment of the function it budgets;
// malformed bodies and directives attached to nothing are findings.
func fabricBudgets(p *Package) (map[*ast.FuncDecl]fcBudget, []Finding) {
	out := map[*ast.FuncDecl]fcBudget{}
	var bad []Finding
	attached := map[*ast.Comment]bool{}
	parse := func(c *ast.Comment) (fcCost, bool) {
		fields := strings.Fields(strings.TrimPrefix(c.Text, fabricDirectivePrefix))
		if len(fields) >= 1 {
			switch fields[0] {
			case "O(1)":
				return fcOne, true
			case "O(n)":
				return fcMany, true
			case "none":
				return fcNone, true
			}
		}
		bad = append(bad, Finding{
			Analyzer: "fabriccost",
			Pos:      p.Fset.Position(c.Pos()),
			Message:  "malformed //polarvet:fabric: want \"//polarvet:fabric O(1)|O(n)|none [rationale]\"",
		})
		return fcNone, false
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if !strings.HasPrefix(c.Text, fabricDirectivePrefix) {
					continue
				}
				attached[c] = true
				level, ok := parse(c)
				if !ok {
					continue
				}
				if _, dup := out[fd]; dup {
					bad = append(bad, Finding{
						Analyzer: "fabriccost",
						Pos:      p.Fset.Position(c.Pos()),
						Message:  fmt.Sprintf("duplicate //polarvet:fabric on %s; a function has one budget", fd.Name.Name),
					})
					continue
				}
				out[fd] = fcBudget{level: level, pos: p.Fset.Position(c.Pos())}
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, fabricDirectivePrefix) || attached[c] {
					continue
				}
				bad = append(bad, Finding{
					Analyzer: "fabriccost",
					Pos:      p.Fset.Position(c.Pos()),
					Message:  "//polarvet:fabric is not attached to a function declaration; put it in the doc comment of the function it budgets",
				})
			}
		}
	}
	return out, bad
}

// ---- findings ----

// budgetFindings enforces declared budgets exactly against the computed
// transitive worst cost, in both directions.
func (fab *fabricFacts) budgetFindings() []Finding {
	var out []Finding
	for f, b := range fab.budgets {
		computed, verb := worstCost(fab.cost[f])
		switch {
		case computed > b.level:
			out = append(out, Finding{
				Analyzer: "fabriccost",
				Pos:      b.pos,
				Message: fmt.Sprintf("fabric budget violated: %s declares %s but transitively issues %s at %s (%s)",
					f.qualified(), b.level, verb, computed, fab.path(nil, f, verb)),
			})
		case computed < b.level:
			out = append(out, Finding{
				Analyzer: "fabriccost",
				Pos:      b.pos,
				Message: fmt.Sprintf("fabric budget loose: %s declares %s but the computed worst cost is %s; tighten the directive so the declared table stays honest",
					f.qualified(), b.level, computed),
			})
		}
	}
	return out
}

// at is a fabriccost finding at a call site.
func (fab *fabricFacts) at(cs *callSite, msg string) Finding {
	return Finding{Analyzer: "fabriccost", Pos: fab.prog.fset.Position(cs.call.Pos()), Message: msg}
}

// fanOutFindings reports the scope's loop-carried fan-out sites: an RPC
// issued per iteration of a range loop, directly or through a helper whose
// whole transitive cost is one RPC round trip — n round trips in a trench
// coat, the batchable shape.
func (fab *fabricFacts) fanOutFindings(f *funcInfo) []Finding {
	var out []Finding
	ranges := enclosingRanges(f.body)
	for _, cs := range f.calls {
		rng := ranges[cs.call]
		if rng == nil || cs.spawned {
			continue
		}
		over := types.ExprString(rng.X)
		if cs.verb != "" {
			// One-sided verbs are the cheap currency; no finding.
			if rpcVerbs[cs.verb] {
				out = append(out, fab.at(cs, fmt.Sprintf("loop-carried fan-out: RPC %s issued per-iteration of range over %s; batch the requests per destination or hoist the round trip out of the loop", cs.verb, over)))
			}
			continue
		}
		for _, t := range cs.targets {
			rpcWorst := fcNone
			for verb, cf := range fab.cost[t] {
				if rpcVerbs[verb] {
					rpcWorst = max(rpcWorst, cf.cost)
				}
			}
			if rpcWorst == fcOne {
				out = append(out, fab.at(cs, fmt.Sprintf("loop-carried fan-out: %s (one fabric round trip per call) invoked per-iteration of range over %s; batch the requests into one RPC", t.qualified(), over)))
				break
			}
		}
	}
	return out
}

// deadlineFindings reports the scope's fabric waits that can wedge it on
// a dead peer: every bare Endpoint.Call, and every fabric-waiting call on
// a cycle that neither terminates nor can be cancelled.
func (fab *fabricFacts) deadlineFindings(f *funcInfo) []Finding {
	var out []Finding
	for _, blk := range f.g.blocks {
		bound, cyclic := f.cycles[f.scc[blk]]
		for _, cs := range blk.calls {
			switch {
			case cs.verb == "Call":
				out = append(out, fab.at(cs, fmt.Sprintf("%s: Endpoint.Call has no deadline and can wedge forever on a dead handler; use CallTimeout", f.name)))
			case cyclic && !bound.terminates() && fab.waits(cs):
				out = append(out, fab.at(cs, fmt.Sprintf("%s: fabric-waiting call %s retried on an unbounded loop; bound it with a retry.Backoff window, a counted loop, or a cancellable select",
					f.name, types.ExprString(cs.call.Fun))))
			}
		}
	}
	return out
}

// waits reports whether a call waits on the fabric: it is a verb, or a
// module function it may enter transitively issues one.
func (fab *fabricFacts) waits(cs *callSite) bool {
	if cs.verb != "" {
		return true
	}
	for _, t := range cs.targets {
		if fab.reaches(t) {
			return true
		}
	}
	return false
}

// enclosingRanges maps each call of body (function literals excluded: they
// are separate scopes) to its innermost enclosing loop when that loop is a
// range statement; a nearer for loop (retry shape) shadows it, and calls
// in a range's operand or a for's init run once, outside that loop.
func enclosingRanges(body *ast.BlockStmt) map[*ast.CallExpr]*ast.RangeStmt {
	out := map[*ast.CallExpr]*ast.RangeStmt{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for i := len(stack) - 1; i >= 0; i-- {
			switch s := stack[i].(type) {
			case *ast.RangeStmt:
				if call.End() <= s.X.End() {
					continue
				}
				out[call] = s
			case *ast.ForStmt:
				if s.Init != nil && call.End() <= s.Init.End() {
					continue
				}
			default:
				continue
			}
			break
		}
		return true
	})
	return out
}

// ---- the cost table, as a view of the result ----

// FabricVerbCost is one verb's transitive cost in one function.
type FabricVerbCost struct {
	Verb  string `json:"verb"`
	Class string `json:"class"` // "rpc" or "onesided"
	Cost  string `json:"cost"`  // "O(1)" or "O(n)"
	Path  string `json:"path"`  // witness chain down to the issuing site
}

// FabricFuncCost is the fabric-cost summary of one declared function.
type FabricFuncCost struct {
	Function string           `json:"function"`
	Package  string           `json:"package"`
	Pos      string           `json:"pos"`
	Budget   string           `json:"budget,omitempty"` // declared //polarvet:fabric level
	RPC      string           `json:"rpc"`              // worst RPC-verb cost
	OneSided string           `json:"onesided"`         // worst one-sided-verb cost
	Verbs    []FabricVerbCost `json:"verbs"`
}

// FabricReport returns the cost table the fabriccost analyzer reasons
// over: every declared module function that transitively issues a fabric
// verb or declares a budget (a `none` budget has no verb to show), its
// per-verb cost and witness path, and its declared budget when one exists.
func (r *Result) FabricReport() []FabricFuncCost {
	fab := r.prog.fabric
	var out []FabricFuncCost
	for _, f := range r.prog.funcs {
		m := fab.cost[f]
		b, budgeted := fab.budgets[f]
		if f.fn == nil || (len(m) == 0 && !budgeted) {
			continue
		}
		entry := FabricFuncCost{
			Function: f.qualified(),
			Package:  f.pkg.Path,
			Pos:      r.prog.fset.Position(f.fn.Pos()).String(),
		}
		if budgeted {
			entry.Budget = b.level.String()
		}
		rpcWorst, osWorst := fcNone, fcNone
		for _, name := range sortedVerbs(m) {
			cf := m[name]
			v := FabricVerbCost{Verb: name, Class: "onesided", Cost: cf.cost.String(), Path: fab.path(nil, f, name)}
			if rpcVerbs[name] {
				v.Class = "rpc"
				rpcWorst = max(rpcWorst, cf.cost)
			} else {
				osWorst = max(osWorst, cf.cost)
			}
			entry.Verbs = append(entry.Verbs, v)
		}
		entry.RPC, entry.OneSided = rpcWorst.String(), osWorst.String()
		out = append(out, entry)
	}
	return out
}
