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
//   - One-sided conversion candidates. An RPC whose request marshals
//     only fixed-width wire fields (or is nil) and whose response is
//     ignored or read back with only fixed-width fields is shaped like a
//     read/write of a fixed layout — the remote CPU adds nothing, and a
//     registered region plus a one-sided verb could carry it.
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
// Like every module analysis, propagation under-approximates unknown
// code: calls that do not resolve to a module body contribute nothing,
// and goroutines spawned with `go` do not bill the spawner (their cost is
// not on the caller's latency path). polarvet -fabricreport dumps the
// full per-function cost table as JSON; -fabricgraph renders the cost-
// annotated call graph as DOT.

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

// Check implements Analyzer; fabriccost only runs module-wide.
func (FabricCost) Check(p *Package) []Finding { return nil }

// CheckModule implements ModuleAnalyzer.
func (FabricCost) CheckModule(pkgs []*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	a := newFabricAnalysis(pkgs)
	a.solve()
	sel := map[*Package]bool{}
	for _, p := range pkgs {
		sel[p] = true
	}
	return a.report(sel)
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

// fcPromote is the cost a callee verb contributes at a call site: a call
// on a loop makes every callee round trip loop-carried.
func fcPromote(c fcCost, mult fcCost) fcCost {
	if c == fcNone {
		return fcNone
	}
	if mult == fcMany {
		return fcMany
	}
	return c
}

// rpcVerbs are the verbs that occupy the remote CPU; the remaining
// fabricVerbs entries are one-sided.
var rpcVerbs = map[string]bool{"Call": true, "CallTimeout": true}

// fabricVerbClass labels a verb "rpc" or "onesided".
func fabricVerbClass(name string) string {
	if rpcVerbs[name] {
		return "rpc"
	}
	return "onesided"
}

// ---- per-scope events ----

// fcVerbEv is one direct fabric verb with its loop multiplicity.
type fcVerbEv struct {
	name string
	pos  token.Pos
	mult fcCost
}

// fcCallEv is one resolved module call with its loop multiplicity.
type fcCallEv struct {
	targets []*types.Func
	pos     token.Pos
	mult    fcCost
}

// fcLitEv is an immediately- or defer-invoked function literal, whose
// scope cost folds into the enclosing function at the site multiplicity.
type fcLitEv struct {
	lit  *ast.FuncLit
	pos  token.Pos
	mult fcCost
}

// fcScope is one analyzed function body and its recorded events.
type fcScope struct {
	p     *Package
	name  string
	fn    *types.Func  // nil for literals
	lit   *ast.FuncLit // nil for declarations
	body  *ast.BlockStmt
	verbs []fcVerbEv
	calls []fcCallEv
	lits  []fcLitEv
}

// fcWitness explains one entry of a cost map: a direct verb site, or a
// call site into the function/literal that issues it in turn.
type fcWitness struct {
	site    token.Pos
	verb    string // direct verb name when terminal
	nextFn  *types.Func
	nextLit *ast.FuncLit
}

// fcFact is the transitive cost of one verb name in one scope.
type fcFact struct {
	cost fcCost
	wit  fcWitness
}

// fcBudget is one parsed //polarvet:fabric declaration.
type fcBudget struct {
	level fcCost
	pos   token.Position
}

// ---- the analysis driver ----

type fcAnalysis struct {
	idx     *moduleIndex
	fset    *token.FileSet
	scopes  []*fcScope
	fnCost  map[*types.Func]map[string]*fcFact
	litCost map[*ast.FuncLit]map[string]*fcFact
	budgets map[*types.Func]fcBudget
	// malformed / dangling directive findings, collected during parsing.
	directiveFindings []Finding
}

func newFabricAnalysis(pkgs []*Package) *fcAnalysis {
	a := &fcAnalysis{
		idx:     buildModuleIndex(pkgs),
		fset:    pkgs[0].Fset,
		fnCost:  map[*types.Func]map[string]*fcFact{},
		litCost: map[*ast.FuncLit]map[string]*fcFact{},
		budgets: map[*types.Func]fcBudget{},
	}
	for _, p := range a.idx.pkgs {
		if exemptFromLocking(p.Path) {
			continue // rdma implements the verbs; lint analyzes them
		}
		budgets, bad := fabricBudgets(p)
		a.directiveFindings = append(a.directiveFindings, bad...)
		for fd, b := range budgets {
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				a.budgets[fn] = b
			}
		}
		for _, scope := range funcScopes(p) {
			sc := &fcScope{p: p, body: scope.body, lit: scope.lit}
			if scope.decl != nil {
				fn, ok := p.Info.Defs[scope.decl.Name].(*types.Func)
				if !ok {
					continue
				}
				sc.fn = fn
				sc.name = qualifiedFuncName(fn)
			} else {
				sc.name = shortPkg(p.Path) + "." + scope.name
			}
			a.scanScope(sc)
			a.scopes = append(a.scopes, sc)
		}
	}
	return a
}

// scanScope records the scope's direct verb, call and literal-invocation
// events, each tagged with the CFG-derived loop multiplicity of its block.
func (a *fcAnalysis) scanScope(sc *fcScope) {
	g := buildCFG(sc.body)
	ids, cyclic := g.sccMap()
	bounded := map[int]bool{}
	for id := range cyclic {
		bounded[id] = fcSCCBounded(sc.p, g, ids, id)
	}
	bindings := methodBindings(sc.p, sc.body)
	for _, blk := range g.blocks {
		mult := fcOne
		if cyclic[ids[blk]] && !bounded[ids[blk]] {
			mult = fcMany
		}
		goCalls := map[*ast.CallExpr]bool{}
		for _, n := range blk.nodes {
			inspectSkipFuncLit(n, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.GoStmt:
					goCalls[c.Call] = true
				case *ast.CallExpr:
					if goCalls[c] {
						return true // async: not on the caller's latency path
					}
					if obj := calleeFunc(sc.p, c); obj != nil && isFabricVerb(obj) {
						sc.verbs = append(sc.verbs, fcVerbEv{name: obj.Name(), pos: c.Pos(), mult: mult})
						return true
					}
					if lit, ok := c.Fun.(*ast.FuncLit); ok {
						sc.lits = append(sc.lits, fcLitEv{lit: lit, pos: c.Pos(), mult: mult})
						return true
					}
					if targets := a.idx.resolveCall(sc.p, c, bindings); len(targets) > 0 {
						sc.calls = append(sc.calls, fcCallEv{targets: targets, pos: c.Pos(), mult: mult})
					}
				}
				return true
			})
		}
	}
}

// fcSCCBounded reports whether a CFG cycle is a retry, not data fan-out:
// it advances a retry.Backoff, or every loop forming it is bounded by an
// integer constant. Range loops iterate data and are never bounded here.
func fcSCCBounded(p *Package, g *funcCFG, ids map[*cfgBlock]int, id int) bool {
	scc, backoff := sccBackoff(p, g, ids, id)
	if backoff {
		return true
	}
	loops, constBounded := 0, 0
	for stmt, head := range g.loopHeads {
		if !scc[head] {
			continue
		}
		loops++
		fs, ok := stmt.(*ast.ForStmt)
		if !ok || fs.Cond == nil {
			continue
		}
		if bin, ok := fs.Cond.(*ast.BinaryExpr); ok {
			switch bin.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				if isConstExpr(p, bin.X) || isConstExpr(p, bin.Y) {
					constBounded++
				}
			}
		}
	}
	return loops > 0 && constBounded == loops
}

// isConstExpr reports whether go/types folded e to a constant.
func isConstExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// solve runs the interprocedural cost fixpoint. The lattice is finite
// (verb name -> cost level) and the transfer is monotone, so this
// converges; the cap is a defensive bound.
func (a *fcAnalysis) solve() {
	for round := 0; round < 40; round++ {
		changed := false
		for _, sc := range a.scopes {
			if a.transfer(sc) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// costOf returns the scope's (mutable) cost map.
func (a *fcAnalysis) costOf(sc *fcScope) map[string]*fcFact {
	if sc.fn != nil {
		m := a.fnCost[sc.fn]
		if m == nil {
			m = map[string]*fcFact{}
			a.fnCost[sc.fn] = m
		}
		return m
	}
	m := a.litCost[sc.lit]
	if m == nil {
		m = map[string]*fcFact{}
		a.litCost[sc.lit] = m
	}
	return m
}

// transfer folds the scope's events into its cost map. Reports change.
// Witnesses are first-wins per verb at a given level and replaced when
// the level rises, so the recorded path always explains the final cost.
func (a *fcAnalysis) transfer(sc *fcScope) bool {
	m := a.costOf(sc)
	changed := false
	join := func(verb string, c fcCost, w fcWitness) {
		if c == fcNone {
			return
		}
		f := m[verb]
		if f == nil {
			m[verb] = &fcFact{cost: c, wit: w}
			changed = true
			return
		}
		if c > f.cost {
			f.cost = c
			f.wit = w
			changed = true
		}
	}
	for _, ev := range sc.verbs {
		join(ev.name, ev.mult, fcWitness{site: ev.pos, verb: ev.name})
	}
	for _, ev := range sc.lits {
		for verb, f := range a.litCost[ev.lit] {
			join(verb, fcPromote(f.cost, ev.mult), fcWitness{site: ev.pos, nextLit: ev.lit})
		}
	}
	for _, ev := range sc.calls {
		for _, t := range ev.targets {
			for verb, f := range a.fnCost[t] {
				join(verb, fcPromote(f.cost, ev.mult), fcWitness{site: ev.pos, nextFn: t})
			}
		}
	}
	return changed
}

// renderPath follows the witness chain from a cost map down to the verb
// site, for humans reading findings and the report.
func (a *fcAnalysis) renderPath(m map[string]*fcFact, verb string) string {
	var parts []string
	for hops := 0; hops < 12; hops++ {
		f := m[verb]
		if f == nil {
			break
		}
		switch w := f.wit; {
		case w.nextFn != nil:
			parts = append(parts, qualifiedFuncName(w.nextFn))
			m = a.fnCost[w.nextFn]
		case w.nextLit != nil:
			parts = append(parts, "(func literal)")
			m = a.litCost[w.nextLit]
		default:
			parts = append(parts, fmt.Sprintf("%s at %s", w.verb, a.fset.Position(w.site)))
			return "via " + strings.Join(parts, " → ")
		}
	}
	return "via " + strings.Join(parts, " → ")
}

// worstCost is the scope-wide worst level and the verb witnessing it.
func worstCost(m map[string]*fcFact) (fcCost, string) {
	worst, verb := fcNone, ""
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if f := m[name]; f.cost > worst {
			worst, verb = f.cost, name
		}
	}
	return worst, verb
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

// report renders every finding class for the selected packages.
func (a *fcAnalysis) report(sel map[*Package]bool) []Finding {
	var out []Finding
	for _, f := range a.directiveFindings {
		if a.posSelected(f.Pos, sel) {
			out = append(out, f)
		}
	}
	for _, sc := range a.scopes {
		for _, f := range a.scopeFindings(sc) {
			if a.posSelected(f.Pos, sel) {
				out = append(out, f)
			}
		}
	}
	out = append(out, a.budgetFindings(sel)...)
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Pos.Filename != y.Pos.Filename {
			return x.Pos.Filename < y.Pos.Filename
		}
		if x.Pos.Line != y.Pos.Line {
			return x.Pos.Line < y.Pos.Line
		}
		return x.Message < y.Message
	})
	return out
}

// budgetFindings enforces declared budgets exactly against the computed
// transitive worst cost, in both directions.
func (a *fcAnalysis) budgetFindings(sel map[*Package]bool) []Finding {
	var fns []*types.Func
	for fn := range a.budgets {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	var out []Finding
	for _, fn := range fns {
		b := a.budgets[fn]
		if !a.posSelected(b.pos, sel) {
			continue
		}
		computed, verb := worstCost(a.fnCost[fn])
		switch {
		case computed > b.level:
			out = append(out, Finding{
				Analyzer: "fabriccost",
				Pos:      b.pos,
				Message: fmt.Sprintf("fabric budget violated: %s declares %s but transitively issues %s at %s (%s)",
					qualifiedFuncName(fn), b.level, verb, computed, a.renderPath(a.fnCost[fn], verb)),
			})
		case computed < b.level:
			out = append(out, Finding{
				Analyzer: "fabriccost",
				Pos:      b.pos,
				Message: fmt.Sprintf("fabric budget loose: %s declares %s but the computed worst cost is %s; tighten the directive so the declared table stays honest",
					qualifiedFuncName(fn), b.level, computed),
			})
		}
	}
	return out
}

// scopeFindings walks one scope body for the two site-level finding
// classes: loop-carried fan-out and one-sided conversion candidates.
func (a *fcAnalysis) scopeFindings(sc *fcScope) []Finding {
	wire := a.wireUsage(sc)
	var out []Finding
	var stack []ast.Node
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(sc.body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != sc.body {
			return false // separate scope
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.GoStmt:
			goCalls[n.Call] = true
		case *ast.CallExpr:
			if goCalls[n] {
				return true
			}
			out = append(out, a.callSiteFindings(sc, n, stack, wire)...)
		}
		return true
	})
	return out
}

// callSiteFindings classifies one call site.
func (a *fcAnalysis) callSiteFindings(sc *fcScope, call *ast.CallExpr, stack []ast.Node, wire *fcWireUsage) []Finding {
	rng := enclosingRange(stack, call)
	obj := calleeFunc(sc.p, call)
	if obj != nil && isFabricVerb(obj) {
		if !rpcVerbs[obj.Name()] {
			return nil // one-sided verbs are the cheap currency; no finding
		}
		if rng != nil {
			return []Finding{{
				Analyzer: "fabriccost",
				Pos:      a.fset.Position(call.Pos()),
				Message: fmt.Sprintf("loop-carried fan-out: RPC %s issued per-iteration of range over %s; batch the requests per destination or hoist the round trip out of the loop",
					obj.Name(), types.ExprString(rangeExprOf(rng))),
			}}
		}
		return a.convertibleFinding(sc, call, stack, wire)
	}
	// Interprocedural fan-out: a range loop invoking a helper whose whole
	// transitive cost is one RPC round trip is n round trips in a trench
	// coat — the batchable shape.
	if rng == nil {
		return nil
	}
	bindings := methodBindings(sc.p, sc.body)
	for _, t := range a.idx.resolveCall(sc.p, call, bindings) {
		m := a.fnCost[t]
		if m == nil {
			continue
		}
		rpcWorst := fcNone
		for verb, f := range m {
			if rpcVerbs[verb] && f.cost > rpcWorst {
				rpcWorst = f.cost
			}
		}
		if rpcWorst == fcOne {
			return []Finding{{
				Analyzer: "fabriccost",
				Pos:      a.fset.Position(call.Pos()),
				Message: fmt.Sprintf("loop-carried fan-out: %s (one fabric round trip per call) invoked per-iteration of range over %s; batch the requests into one RPC",
					qualifiedFuncName(t), types.ExprString(rangeExprOf(rng))),
			}}
		}
	}
	return nil
}

// enclosingRange returns the innermost loop enclosing call when that loop
// is a range statement; a nearer for loop (retry shape) shadows it.
func enclosingRange(stack []ast.Node, call *ast.CallExpr) *ast.RangeStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.RangeStmt:
			if call.End() <= s.X.End() {
				continue // inside the ranged expression, evaluated once
			}
			return s
		case *ast.ForStmt:
			if s.Init != nil && call.End() <= s.Init.End() {
				continue // loop init runs once
			}
			return nil
		}
	}
	return nil
}

func rangeExprOf(s *ast.RangeStmt) ast.Expr { return s.X }

// ---- one-sided conversion candidates ----

// fcWireUsage is the scope's flow-insensitive wire.Writer/Reader usage:
// which buffer objects only ever marshal fixed-width fields (and outside
// any loop, so the layout is truly fixed), and which response objects
// feed a wire.NewReader.
type fcWireUsage struct {
	fixedWriter map[types.Object]bool
	fixedReader map[types.Object]bool
	respReader  map[types.Object]types.Object // RPC response var -> reader var
}

// fixedWireMethods are the Writer/Reader methods that move a fixed number
// of bytes; String and Bytes32 are length-prefixed and variable.
var fixedWireMethods = map[string]bool{
	"U8": true, "U16": true, "U32": true, "U64": true, "Bool": true,
	"Bytes": true, "Err": true, "Remaining": true,
}

// wireUsage scans the scope once for writer/reader fixedness.
func (a *fcAnalysis) wireUsage(sc *fcScope) *fcWireUsage {
	u := &fcWireUsage{
		fixedWriter: map[types.Object]bool{},
		fixedReader: map[types.Object]bool{},
		respReader:  map[types.Object]types.Object{},
	}
	variable := map[types.Object]bool{}
	var stack []ast.Node
	ast.Inspect(sc.body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != sc.body {
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					continue
				}
				fn := calleeFunc(sc.p, call)
				if fn == nil || fn.Name() != "NewReader" || fn.Pkg() == nil ||
					!strings.HasSuffix(fn.Pkg().Path(), "internal/wire") {
					continue
				}
				resp := identObj2(sc.p, call.Args[0])
				rd := identObj2(sc.p, n.Lhs[i])
				if resp != nil && rd != nil {
					u.respReader[resp] = rd
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := identObj2(sc.p, sel.X)
			if recv == nil {
				return true
			}
			writer := isWireType(recv.Type(), "Writer")
			reader := isWireType(recv.Type(), "Reader")
			if !writer && !reader {
				return true
			}
			inLoop := false
			for i := len(stack) - 2; i >= 0; i-- {
				switch stack[i].(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					inLoop = true
				}
			}
			if !fixedWireMethods[sel.Sel.Name] || (inLoop && sel.Sel.Name != "Err" && sel.Sel.Name != "Bytes") {
				variable[recv] = true
				return true
			}
			if writer {
				u.fixedWriter[recv] = true
			} else {
				u.fixedReader[recv] = true
			}
		}
		return true
	})
	for obj := range variable {
		delete(u.fixedWriter, obj)
		delete(u.fixedReader, obj)
	}
	return u
}

// isWireType reports a pointer to internal/wire.<name>.
func isWireType(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == name && strings.HasSuffix(named.Obj().Pkg().Path(), "internal/wire")
}

// convertibleFinding reports an RPC shaped like a fixed-layout read or
// write of a registered region: fixed-width (or nil) request, and a
// response that is either ignored (write shape) or read back with only
// fixed-width fields (read shape).
func (a *fcAnalysis) convertibleFinding(sc *fcScope, call *ast.CallExpr, stack []ast.Node, wire *fcWireUsage) []Finding {
	if len(call.Args) < 3 {
		return nil
	}
	req := call.Args[2]
	reqFixed := false
	switch r := req.(type) {
	case *ast.Ident:
		reqFixed = r.Name == "nil"
	case *ast.CallExpr:
		if sel, ok := r.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Bytes" {
			if obj := identObj2(sc.p, sel.X); obj != nil && wire.fixedWriter[obj] {
				reqFixed = true
			}
		}
	}
	if !reqFixed {
		return nil
	}
	respObj, respIgnored := rpcResponseUse(sc.p, call, stack)
	shape := ""
	switch {
	case respIgnored:
		shape = "Write"
	case respObj != nil && wire.fixedReader[wire.respReader[respObj]] && wire.respReader[respObj] != nil:
		shape = "Read"
	default:
		return nil
	}
	detail := "reads the response with only fixed-width fields"
	if shape == "Write" {
		detail = "ignores the response"
	}
	return []Finding{{
		Analyzer: "fabriccost",
		Pos:      a.fset.Position(call.Pos()),
		Message: fmt.Sprintf("one-sided convertible: RPC %s marshals a fixed-layout request and %s; a registered region and a one-sided %s would bypass the remote CPU",
			types.ExprString(call.Args[1]), detail, shape),
	}}
}

// rpcResponseUse inspects how the call's response value is bound: the
// object it lands in, or ignored (blank / dropped expression statement).
func rpcResponseUse(p *Package, call *ast.CallExpr, stack []ast.Node) (types.Object, bool) {
	if len(stack) < 2 {
		return nil, false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.ExprStmt:
		return nil, true
	case *ast.AssignStmt:
		if len(parent.Rhs) == 1 && parent.Rhs[0] == call && len(parent.Lhs) >= 1 {
			if id, ok := parent.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				return nil, true
			}
			return identObj2(p, parent.Lhs[0]), false
		}
	}
	return nil, false
}

// posSelected mirrors loAnalysis.posSelected: findings outside the
// pattern-selected packages are suppressed.
func (a *fcAnalysis) posSelected(pos token.Position, sel map[*Package]bool) bool {
	dir := pos.Filename
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i]
	}
	for p := range sel {
		if p.Dir == dir {
			return true
		}
	}
	return false
}

// ---- public fabric-report API (polarvet -fabricreport / -fabricgraph) ----

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

// FabricCallEdge is a call-graph edge between two cost-bearing functions.
type FabricCallEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	InLoop bool   `json:"inLoop"` // the call sits on an unbounded CFG cycle
}

// FabricReport is the module's per-function fabric-cost table, as dumped
// by polarvet -fabricreport (JSON) and -fabricgraph (DOT).
type FabricReport struct {
	Functions []FabricFuncCost `json:"functions"`
	Edges     []FabricCallEdge `json:"edges"`
}

// BuildFabricReport loads the packages matching patterns and returns the
// cost table the fabriccost analyzer reasons over: every declared module
// function that transitively issues a fabric verb, its per-verb cost and
// witness path, and its declared budget when one exists.
func BuildFabricReport(mod *Module, patterns []string) (*FabricReport, error) {
	paths, err := mod.Packages(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range paths {
		p, err := mod.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		return &FabricReport{}, nil
	}
	a := newFabricAnalysis(pkgs)
	a.solve()
	r := &FabricReport{}
	included := map[*types.Func]bool{}
	for _, sc := range a.scopes {
		if sc.fn == nil || len(a.fnCost[sc.fn]) == 0 {
			continue
		}
		included[sc.fn] = true
		m := a.fnCost[sc.fn]
		entry := FabricFuncCost{
			Function: sc.name,
			Package:  sc.p.Path,
			Pos:      a.fset.Position(sc.fn.Pos()).String(),
			RPC:      fcNone.String(),
			OneSided: fcNone.String(),
		}
		if b, ok := a.budgets[sc.fn]; ok {
			entry.Budget = b.level.String()
		}
		var names []string
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		rpcWorst, osWorst := fcNone, fcNone
		for _, name := range names {
			f := m[name]
			entry.Verbs = append(entry.Verbs, FabricVerbCost{
				Verb:  name,
				Class: fabricVerbClass(name),
				Cost:  f.cost.String(),
				Path:  a.renderPath(m, name),
			})
			if rpcVerbs[name] {
				if f.cost > rpcWorst {
					rpcWorst = f.cost
				}
			} else if f.cost > osWorst {
				osWorst = f.cost
			}
		}
		entry.RPC, entry.OneSided = rpcWorst.String(), osWorst.String()
		r.Functions = append(r.Functions, entry)
	}
	edges := map[string]*FabricCallEdge{}
	for _, sc := range a.scopes {
		if sc.fn == nil || !included[sc.fn] {
			continue
		}
		for _, ev := range sc.calls {
			for _, t := range ev.targets {
				if !included[t] {
					continue
				}
				key := sc.name + "\x00" + qualifiedFuncName(t)
				e, ok := edges[key]
				if !ok {
					e = &FabricCallEdge{From: sc.name, To: qualifiedFuncName(t)}
					edges[key] = e
				}
				if ev.mult == fcMany {
					e.InLoop = true
				}
			}
		}
	}
	for _, e := range edges {
		r.Edges = append(r.Edges, *e)
	}
	sort.Slice(r.Edges, func(i, j int) bool {
		if r.Edges[i].From != r.Edges[j].From {
			return r.Edges[i].From < r.Edges[j].From
		}
		return r.Edges[i].To < r.Edges[j].To
	})
	return r, nil
}

// DOT renders the cost table as an overlay on the call graph: one node
// per cost-bearing function, filled by its worst RPC cost (O(n) darkest),
// double-bordered when it carries a declared budget; loop-carried call
// edges are bold and labeled ×n.
func (r *FabricReport) DOT() string {
	var b strings.Builder
	b.WriteString("digraph fabriccost {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, style=filled, fontname=\"monospace\"];\n")
	for _, f := range r.Functions {
		fill := "#d9ead3" // one-sided only
		switch f.RPC {
		case "O(n)":
			fill = "#f4cccc"
		case "O(1)":
			fill = "#fff2cc"
		}
		label := fmt.Sprintf("%s\\nrpc %s / 1s %s", f.Function, f.RPC, f.OneSided)
		attrs := ""
		if f.Budget != "" {
			label += fmt.Sprintf("\\nbudget %s", f.Budget)
			attrs = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  %q [label=%q, fillcolor=%q%s];\n", f.Function, label, fill, attrs)
	}
	for _, e := range r.Edges {
		attrs := ""
		if e.InLoop {
			attrs = " [style=bold, label=\"×n\"]"
		}
		fmt.Fprintf(&b, "  %q -> %q%s;\n", e.From, e.To, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
