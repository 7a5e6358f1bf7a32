package lint

// flow.go is the dataflow core every flow analyzer is written on. A run
// builds one program — the module index plus, for every function body, its
// CFG, cycle structure, method-value bindings and classified call sites —
// and the analyzers are tables and transfer functions over it:
//
//   - forward is the one intraprocedural worklist. An analyzer supplies a
//     state type (clone, join), a block transfer and optionally an edge
//     refinement; pairing and lockorder are instances.
//   - summarize is the one interprocedural fixpoint: one fact per function,
//     recomputed from the callees' facts until a round changes nothing.
//     Pair summaries, lock effects, may-acquire and fabric cost are
//     instances.
//   - witness is the one explanation chain ("via A → B → verb at
//     file:line") and via its one renderer.
//
// A new analyzer is a lattice on these three, not another solver.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// program is the module's shared analysis state, built once per Run.
type program struct {
	*moduleIndex
	fset    *token.FileSet
	selDirs map[string]bool // directories of the pattern-selected packages
	fabric  *fabricFacts    // verb cost per function; "reaches the fabric" derives from it
	lo      *loAnalysis     // solved on first use, see locks
}

// callSite is one call expression of a function body, classified once.
type callSite struct {
	call *ast.CallExpr
	// callee is the function or method called, named directly or through
	// a method value captured into a local; nil for calls through other
	// function values. recv is the receiver expression of a method call.
	callee   *types.Func
	recv     ast.Expr
	verb     string       // fabric verb name when callee is one, else ""
	lit      *funcInfo    // the literal, when one is invoked (or deferred) in place
	targets  []*funcInfo  // module bodies the call may enter; interface calls fan out
	deferred bool         // runs at function exit
	spawned  bool         // runs on another goroutine, off the caller's path
	errVar   types.Object // error variable assigned from the call's last result
	looped   bool         // sits on a CFG cycle that is data fan-out, not a bounded retry
}

// newProgram indexes the selected packages and their dependency closure
// and computes every function body's shared analysis state.
func newProgram(selected []*Package) *program {
	prog := &program{
		moduleIndex: buildModuleIndex(selected),
		fset:        selected[0].Fset,
		selDirs:     map[string]bool{},
	}
	for _, p := range selected {
		prog.selDirs[p.Dir] = true
	}
	for _, f := range prog.funcs {
		f.g = buildCFG(f.body)
		var cyclic map[int]bool
		f.scc, cyclic = f.g.sccMap()
		f.binds = methodBindings(f.pkg, f.body)
		prog.scanCalls(f)
		f.boundCycles(cyclic)
	}
	prog.fabric = solveFabric(prog)
	return prog
}

// scanCalls classifies the calls of every block of f. Function literal
// bodies are separate scopes; the literal expression itself is visited, so
// an invoked literal is a call site of the enclosing body.
func (prog *program) scanCalls(f *funcInfo) {
	p := f.pkg
	deferred := map[*ast.CallExpr]bool{}
	spawned := map[*ast.CallExpr]bool{}
	errVar := map[*ast.CallExpr]types.Object{}
	for _, blk := range f.g.blocks {
		for _, n := range blk.nodes {
			inspectSkipFuncLit(n, func(c ast.Node) bool {
				switch c := c.(type) {
				case *ast.DeferStmt:
					deferred[c.Call] = true
				case *ast.GoStmt:
					spawned[c.Call] = true
				case *ast.AssignStmt:
					// `x, err := call()`: err guards what the call acquired.
					if len(c.Rhs) == 1 {
						if call, ok := c.Rhs[0].(*ast.CallExpr); ok {
							if obj := identObj2(p, c.Lhs[len(c.Lhs)-1]); obj != nil && isErrorType(obj.Type()) {
								errVar[call] = obj
							}
						}
					}
				case *ast.CallExpr:
					cs := &callSite{call: c, deferred: deferred[c], spawned: spawned[c], errVar: errVar[c]}
					switch fun := c.Fun.(type) {
					case *ast.SelectorExpr:
						cs.callee, _ = p.Info.Uses[fun.Sel].(*types.Func)
						cs.recv = fun.X
					case *ast.Ident:
						if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
							cs.callee = fn
						} else if mv, ok := f.binds[identObj(p, fun)]; ok {
							cs.callee, cs.recv = mv.fn, mv.recv
						}
					case *ast.FuncLit:
						cs.lit = prog.lits[fun]
					}
					if cs.callee != nil && isFabricVerb(cs.callee) {
						cs.verb = cs.callee.Name()
					}
					for _, t := range prog.resolveCall(p, c, f.binds) {
						cs.targets = append(cs.targets, prog.decls[t])
					}
					blk.calls = append(blk.calls, cs)
					f.calls = append(f.calls, cs)
				}
				return true
			})
		}
	}
}

// cycleBound is what bounds one CFG cycle. It is classified once per
// strongly connected component and read by both of fabriccost's loop
// questions: is the cycle a retry or data fan-out (the O(1)/O(n)
// transfer), and can a fabric wait on it spin forever (the deadline rule)?
type cycleBound struct {
	backoff     bool // advances a retry.Backoff, so the backoff's window bounds it
	constant    bool // every loop forming it is bounded by an integer constant
	counted     bool // every loop forming it is a counted `for init; cond; post` or a range
	cancellable bool // a select clause leaves it (shutdown channel, cancellation)
}

// retry reports a cycle that only retries: its verbs stay O(1). Range
// loops iterate data and never make a cycle a retry.
func (c cycleBound) retry() bool { return c.backoff || c.constant }

// terminates reports a cycle a fabric wait cannot spin on forever.
func (c cycleBound) terminates() bool { return c.backoff || c.counted || c.cancellable }

// boundCycles classifies each of f's CFG cycles and marks the calls on a
// cycle that is data fan-out, not a retry, as loop-carried.
func (f *funcInfo) boundCycles(cyclic map[int]bool) {
	f.cycles = map[int]cycleBound{}
	for id := range cyclic {
		c := f.classifyCycle(id)
		f.cycles[id] = c
		if c.retry() {
			continue
		}
		for _, blk := range f.g.blocks {
			if f.scc[blk] == id {
				for _, cs := range blk.calls {
					cs.looped = true
				}
			}
		}
	}
}

// classifyCycle computes the bound of f's CFG cycle with the given id.
func (f *funcInfo) classifyCycle(id int) cycleBound {
	var c cycleBound
	scc := map[*cfgBlock]bool{}
	for _, blk := range f.g.blocks {
		if f.scc[blk] != id {
			continue
		}
		scc[blk] = true
		for _, cs := range blk.calls {
			if obj := cs.callee; obj != nil && obj.Pkg() != nil &&
				strings.HasSuffix(obj.Pkg().Path(), "internal/retry") && recvTypeName(obj) == "Backoff" {
				c.backoff = true
			}
		}
	}
	loops, constant, counted := 0, 0, 0
	for stmt, head := range f.g.loopHeads {
		if !scc[head] {
			continue
		}
		loops++
		switch s := stmt.(type) {
		case *ast.RangeStmt:
			counted++
		case *ast.ForStmt:
			if s.Cond != nil && s.Post != nil {
				counted++
			}
			if bin, ok := s.Cond.(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.LSS, token.LEQ, token.GTR, token.GEQ:
					if isConstExpr(f.pkg, bin.X) || isConstExpr(f.pkg, bin.Y) {
						constant++
					}
				}
			}
		}
	}
	c.constant = loops > 0 && constant == loops
	c.counted = loops > 0 && counted == loops
	for _, head := range f.g.selects {
		if !scc[head] {
			continue
		}
		for _, e := range head.succs {
			if !scc[e.to] && reachesAvoiding(e.to, f.g.exit, scc) {
				c.cancellable = true
			}
		}
	}
	return c
}

// isConstExpr reports whether go/types folded e to a constant.
func isConstExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// eachPackage runs a syntactic, package-at-a-time check over the program.
func (prog *program) eachPackage(check func(*Package) []Finding) []Finding {
	var out []Finding
	for _, p := range prog.pkgs {
		out = append(out, check(p)...)
	}
	return out
}

// selected reports whether a position lies inside one of the
// pattern-selected packages. Findings in dependency-only packages are
// dropped: their directives were not loaded, and a narrower run should not
// police files it was not pointed at.
func (prog *program) selected(pos token.Position) bool {
	dir := pos.Filename
	if i := strings.LastIndexByte(dir, '/'); i >= 0 {
		dir = dir[:i]
	}
	return prog.selDirs[dir]
}

// ---- intraprocedural: one worklist ----

// flowState is a dataflow fact an analyzer propagates along CFG edges.
// join merges from into the receiver (a block-entry fact) and reports
// whether the receiver grew.
type flowState[S any] interface {
	clone() S
	join(from S) bool
}

// forward runs a forward dataflow over g to a fixpoint and returns the
// block-entry facts of every reached block. transfer mutates a private
// copy of the entry fact through the block; refine (optional) narrows the
// block's exit fact for one outgoing edge and may return its argument
// unchanged. A block's first visit always propagates, even an empty fact,
// so reachability falls out of the result. The worklist is a stack, and a
// block joined twice before it runs is run twice: lockorder's may-release
// facts depend on the order blocks are first seen in, so the discipline
// is part of the analysis' recorded answers.
func forward[S flowState[S]](g *funcCFG, entry S, transfer func(*cfgBlock, S), refine func(S, cfgEdge) S) map[*cfgBlock]S {
	in := map[*cfgBlock]S{g.entry: entry}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[b].clone()
		transfer(b, st)
		for _, e := range b.succs {
			ns := st
			if refine != nil {
				ns = refine(st, e)
			}
			if cur, seen := in[e.to]; !seen {
				in[e.to] = ns.clone()
				work = append(work, e.to)
			} else if cur.join(ns) {
				work = append(work, e.to)
			}
		}
	}
	return in
}

// edgeCond strips leading negations from a conditional edge: the edge is
// taken exactly when cond evaluates to holds. cond is nil for
// unconditional edges.
func edgeCond(e cfgEdge) (cond ast.Expr, holds bool) {
	cond, holds = e.cond, !e.negate
	for {
		u, ok := cond.(*ast.UnaryExpr)
		if !ok || u.Op != token.NOT {
			return cond, holds
		}
		cond, holds = u.X, !holds
	}
}

// nilGuard parses an edge guarded by `x == nil` / `x != nil` (either
// operand order) over a plain identifier x: it returns x's object and
// whether x is nil along the edge. Both edge refiners (pairing's guarded
// acquires, lockorder's error-pending latches) branch on this.
func nilGuard(p *Package, e cfgEdge) (obj types.Object, isNil, ok bool) {
	cond, holds := edgeCond(e)
	bin, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return nil, false, false
	}
	x := bin.X
	switch {
	case isNilIdent(bin.Y):
	case isNilIdent(bin.X):
		x = bin.Y
	default:
		return nil, false, false
	}
	if obj = identObj2(p, x); obj == nil {
		return nil, false, false
	}
	return obj, (bin.Op == token.EQL) == holds, true
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// ---- interprocedural: one fixpoint ----

// summarize computes one fact per function as a fixpoint over the call
// graph. step recomputes f's fact from the facts map (callee facts are
// read straight out of it, so an update is visible to every later
// function of the same round) and reports whether it changed; rounds over
// fns repeat until one changes nothing. The order of fns is part of the
// result wherever a fact carries a first-wins witness, so callers pass a
// deterministic one. The lattices are finite and the transfers monotone
// where it matters; the round cap is a defensive bound.
func summarize[F any](fns []*funcInfo, facts map[*funcInfo]F, step func(f *funcInfo) (F, bool)) {
	for round, changed := 0, true; changed && round < 40; round++ {
		changed = false
		for _, f := range fns {
			if fact, ch := step(f); ch {
				facts[f] = fact
				changed = true
			}
		}
	}
}

// ---- witnesses ----

// witness is one link of the explanation for an interprocedural fact:
// the fact arises at site, either directly (next nil) or because the call
// at site enters next, whose own witness continues the chain.
type witness struct {
	site token.Pos
	next *funcInfo
}

// via renders a witness chain for humans: "via A → B → <leaf>", the
// functions the chain passes through and then the originating site as
// leaf formats it. head, when non-nil, names the function the chain
// starts in; link returns a function's own witness for the fact being
// explained. The hop bound keeps a witness cycle (a recursive SCC) from
// hanging the renderer; past it the chain is cut short.
func (prog *program) via(head *funcInfo, w *witness, link func(*funcInfo) *witness, leaf func(token.Position) string) string {
	var parts []string
	if head != nil {
		parts = append(parts, head.chainName())
	}
	for hops := 0; w != nil && hops < 12; hops++ {
		if w.next == nil {
			parts = append(parts, leaf(prog.fset.Position(w.site)))
			break
		}
		parts = append(parts, w.next.chainName())
		w = link(w.next)
	}
	return "via " + strings.Join(parts, " → ")
}

// chainName is a function's name inside a witness chain.
func (f *funcInfo) chainName() string {
	if f.lit != nil {
		return "(func literal)"
	}
	return qualifiedFuncName(f.fn)
}
