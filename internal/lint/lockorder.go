package lint

// lockorder is the whole-module lock analysis. It models the repository's
// lock universe as a small set of *classes* — one per sync.Mutex/RWMutex
// struct field or package-level mutex variable, plus the single "PL"
// class for the global page latch (engine.PLLockX/S, btree.Store
// dispatch, rmem.PLManager.LockX/S) — and propagates held-class sets
// interprocedurally over the call graph built by callgraph.go.
//
// From the propagated facts it reports two invariant violations:
//
//  1. Lock-order cycles. Every acquisition observed while another class
//     is held contributes a directed edge held→acquired to the global
//     acquisition-order graph. A cycle in that graph whose acquisitions
//     can mutually block (at each handoff, the acquiring mode conflicts
//     with the held mode — a pure reader cycle cannot deadlock) is a
//     potential deadlock, which `go test -race` cannot see.
//
//  2. Fabric verbs (Endpoint.Read/Write/CAS64/FetchAdd64/Load64/Call/
//     CallTimeout) reached while a node-local mutex class is held, in
//     the same function body or through *any* call path: the verbs
//     simulate network latency, and a latch held across one serializes
//     every other local user of it behind a simulated round trip — a
//     performance bug and a distortion of the measured coherence cost.
//     Holding the PL class across fabric verbs is exempt: the global
//     page latch is *designed* to be taken and held across RDMA (CAS
//     fast path, home-node negotiation, sticky retention), and
//     serializing it behind fabric latency is the documented cost
//     model, not a bug.
//
// The analysis is a conservative under-approximation over unknown code:
// calls that do not resolve to a module function body (stdlib, function
// values that are not captured method values) contribute nothing, and a
// spawned goroutine does not inherit the spawner's held set. Within the
// resolved graph it over-approximates: held sets union at CFG joins with
// write mode dominating, and interface calls fan out to every concrete
// implementing type in the module.
//
// `//polarvet:allow lockorder <reason>` suppresses a finding at the
// reported (witness) position, like every other analyzer.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// fabricVerbs are the latency-bearing *rdma.Endpoint methods.
var fabricVerbs = map[string]bool{
	"Read": true, "Write": true, "CAS64": true, "FetchAdd64": true,
	"Load64": true, "Call": true, "CallTimeout": true,
}

// isFabricVerb reports whether obj is a latency-bearing method on
// *rdma.Endpoint.
func isFabricVerb(obj *types.Func) bool {
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/rdma") || !fabricVerbs[obj.Name()] {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Endpoint"
}

// lockMethods are the sync mutex transitions the analysis models.
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true,
	"Unlock": true, "RUnlock": true,
}

// LockOrder is the module-wide lock-order / held-latch analyzer.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Check implements Analyzer; lockorder only runs module-wide.
func (LockOrder) Check(p *Package) []Finding { return nil }

// CheckModule implements ModuleAnalyzer.
func (LockOrder) CheckModule(pkgs []*Package) []Finding {
	if len(pkgs) == 0 {
		return nil
	}
	return newLockOrderAnalysis(pkgs).run(pkgs)
}

// lockMode distinguishes shared from exclusive acquisitions.
type lockMode uint8

const (
	modeR lockMode = iota + 1 // RLock / LockS
	modeW                     // Lock / LockX
)

func (m lockMode) String() string {
	if m == modeR {
		return "R"
	}
	return "W"
}

// modeConflict reports whether an acquisition in mode acq can block on a
// holder in mode held: everything conflicts except shared-with-shared.
func modeConflict(acq, held lockMode) bool {
	return acq == modeW || held == modeW
}

// plClass is the lock class of the global page latch.
const plClass = "PL"

// fabricTolerant lists the lock classes whose critical sections are
// *designed* to span fabric latency, with the design rationale. Verb
// findings skip them; everything else held across a fabric verb is a
// finding. The table is deliberately small and closed — a new mutex is
// fabric-intolerant until someone argues otherwise here — and DESIGN.md
// documents the same table (docdrift_test.go pins the two together).
var fabricTolerant = map[string]string{
	plClass:                    "the global page latch is taken and held across RDMA by design (CAS fast path, home negotiation, sticky retention); its fabric cost is the paper's cost model",
	"cache.Frame.Latch":        "page materialization and B-tree latch coupling hold a frame latch while the page body or the child's PL crosses the fabric; instance-ordered by tree level",
	"cluster.Session.mu":       "per-session serialization: one statement at a time per connection, each spanning full engine operations",
	"cluster.Proxy.gate":       "the transparent-switchover fence: read-held across statements precisely so a handover can drain them",
	"cluster.Manager.switchMu": "planned handover is stop-the-world for the cluster by design",
}

// pageOrdered marks the page-latch classes whose mutual acquisition
// order is governed by page instance (latch coupling descends the tree,
// and PL + frame latch of one page are taken as a pair in a fixed
// order), which class-granularity cycle detection cannot see. Cycles
// confined to these classes are suppressed, exactly like self-edges.
var pageOrdered = map[string]bool{
	plClass:             true,
	"cache.Frame.Latch": true,
}

// ---- lock-class discovery ----

// loClasses is the discovered lock-class universe.
type loClasses struct {
	of       map[types.Object]string // mutex field / package var -> class
	embedded map[*types.Named]string // struct type embedding a mutex -> class
	all      []string                // every class, sorted
}

// isMutexType reports sync.Mutex / sync.RWMutex (and which).
func isMutexType(t types.Type) (rw bool, ok bool) {
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// discoverLockClasses enumerates every mutex lock class of the module:
// named-struct mutex fields ("engine.Engine.activeMu"), package-level
// mutex variables ("stat.defaultMu"), and — when any PL-bearing package
// is loaded — the global page-latch class "PL". Local mutex variables are
// deliberately unclassified: they cannot participate in a cross-function
// ordering. Exempt packages (rdma, lint) contribute no classes.
func discoverLockClasses(idx *moduleIndex) *loClasses {
	c := &loClasses{of: map[types.Object]string{}, embedded: map[*types.Named]string{}}
	seen := map[string]bool{}
	add := func(obj types.Object, class string) {
		c.of[obj] = class
		if !seen[class] {
			seen[class] = true
			c.all = append(c.all, class)
		}
	}
	for _, p := range idx.pkgs {
		if exemptFromLocking(p.Path) {
			continue
		}
		short := shortPkg(p.Path)
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				if obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if _, ok := isMutexType(f.Type()); !ok {
						continue
					}
					class := short + "." + obj.Name() + "." + f.Name()
					add(f, class)
					if f.Embedded() {
						c.embedded[named] = class
					}
				}
			case *types.Var:
				if _, ok := isMutexType(obj.Type()); ok {
					add(obj, short+"."+name)
				}
			}
		}
		switch short {
		case "rmem", "engine", "btree":
			if !seen[plClass] {
				seen[plClass] = true
				c.all = append(c.all, plClass)
			}
		}
	}
	sort.Strings(c.all)
	return c
}

// embeddedClass resolves a struct value that embeds a mutex (so Lock is
// called on the struct itself) to the embedded field's class.
func (c *loClasses) embeddedClass(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return c.embedded[named]
	}
	return ""
}

// ---- PL op table ----

// plSig names one page-latch operation by package suffix, receiver type
// (concrete or interface) and method name.
type plSig struct {
	pkg, recv, method string
}

var plAcquires = map[plSig]lockMode{
	{"internal/rmem", "PLManager", "LockX"}:  modeW,
	{"internal/rmem", "PLManager", "LockS"}:  modeR,
	{"internal/engine", "Engine", "PLLockX"}: modeW,
	{"internal/engine", "Engine", "PLLockS"}: modeR,
	{"internal/btree", "Store", "PLLockX"}:   modeW,
	{"internal/btree", "Store", "PLLockS"}:   modeR,
}

var plReleases = map[plSig]bool{
	{"internal/rmem", "PLManager", "UnlockX"}:  true,
	{"internal/rmem", "PLManager", "UnlockS"}:  true,
	{"internal/engine", "Engine", "PLUnlockX"}: true,
	{"internal/engine", "Engine", "PLUnlockS"}: true,
	{"internal/btree", "Store", "PLUnlockX"}:   true,
	{"internal/btree", "Store", "PLUnlockS"}:   true,
}

// plDeferrals register the latch for release at MTR commit: the latch
// stays held through the rest of the body but is off the books at exit
// (pairing tracks the commit obligation itself).
var plDeferrals = map[plSig]bool{
	{"internal/engine", "Mtr", "DeferPLUnlockX"}: true,
	{"internal/btree", "Mtr", "DeferPLUnlockX"}:  true,
}

func plSigOf(obj *types.Func) (plSig, bool) {
	if obj.Pkg() == nil {
		return plSig{}, false
	}
	path := obj.Pkg().Path()
	for _, suffix := range []string{"internal/rmem", "internal/engine", "internal/btree"} {
		if strings.HasSuffix(path, suffix) {
			return plSig{pkg: suffix, recv: recvTypeName(obj), method: obj.Name()}, true
		}
	}
	return plSig{}, false
}

// ---- per-function state and events ----

// loState is the dataflow fact at a program point. pend holds the
// error-guarded acquisitions: the repo idiom releases everything before
// an error return (`n, err := rc.acquire(no); if err != nil { return }`),
// so classes a fallible acquisition would hold enter held only along the
// err == nil edge (see refineEdge) and evaporate on the error edge.
type loState struct {
	held map[string]lockMode
	rel  map[string]bool                      // net releases (released while not held)
	def  map[string]bool                      // deferred releases (run at exit)
	pend map[types.Object]map[string]lockMode // err var -> classes held iff it is nil
}

func newLoState() *loState {
	return &loState{held: map[string]lockMode{}, rel: map[string]bool{}, def: map[string]bool{}}
}

func (s *loState) clone() *loState {
	n := newLoState()
	for k, v := range s.held {
		n.held[k] = v
	}
	for k := range s.rel {
		n.rel[k] = true
	}
	for k := range s.def {
		n.def[k] = true
	}
	for obj, classes := range s.pend {
		m := make(map[string]lockMode, len(classes))
		for c, mode := range classes {
			m[c] = mode
		}
		n.setPend(obj, m)
	}
	return n
}

func (s *loState) setPend(obj types.Object, classes map[string]lockMode) {
	if s.pend == nil {
		s.pend = map[types.Object]map[string]lockMode{}
	}
	for c, m := range classes {
		if cur := s.pend[obj]; cur == nil {
			s.pend[obj] = map[string]lockMode{c: m}
		} else if cur[c] < m {
			cur[c] = m
		}
	}
}

// joinInto merges o into s (s is a block-entry fact): held unions with W
// dominating, and releases (net and deferred) union too — may-release.
// The repo's error-path idiom (`committed := false; defer func() { if
// !committed { mt.Commit() } }()` next to a happy-path Commit) releases
// on *some* path in each shape; must-release intersection would call the
// pair a leak and drown the report in held-set pollution. The cost is
// that a class released on one path is considered off the books on all —
// the analyzer prefers missed findings over false ones. Reports change.
func (s *loState) joinInto(o *loState) bool {
	changed := false
	for k, ov := range o.held {
		if sv, ok := s.held[k]; !ok || ov > sv {
			s.held[k] = ov
			changed = true
		}
	}
	for k := range o.rel {
		if !s.rel[k] {
			s.rel[k] = true
			changed = true
		}
	}
	for k := range o.def {
		if !s.def[k] {
			s.def[k] = true
			changed = true
		}
	}
	for obj, classes := range o.pend {
		for c, m := range classes {
			if s.pend[obj][c] < m {
				s.setPend(obj, map[string]lockMode{c: m})
				changed = true
			}
		}
	}
	return changed
}

func copyHeld(h map[string]lockMode) map[string]lockMode {
	out := make(map[string]lockMode, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// loAcqEv is one direct acquisition (sync mutex or PL op) with the
// classes held just before it.
type loAcqEv struct {
	pos   token.Pos
	class string
	mode  lockMode
	try   bool
	held  map[string]lockMode
}

// loCallEv is one resolved module call with the classes held across it.
type loCallEv struct {
	pos     token.Pos
	held    map[string]lockMode
	targets []*types.Func
}

// loVerbEv is one direct fabric verb with the classes held across it.
type loVerbEv struct {
	pos  token.Pos
	name string
	held map[string]lockMode
}

// loSummary is the per-function-scope result: the net effect callers
// apply (leavesHeld / releases) plus the recorded events the reporting
// phases consume.
type loSummary struct {
	leavesHeld map[string]lockMode
	releases   map[string]bool
	acqs       []loAcqEv
	calls      []loCallEv
	verbs      []loVerbEv
	pkg        *Package
	name       string
}

func (s *loSummary) effectEquals(o *loSummary) bool {
	if o == nil || len(s.leavesHeld) != len(o.leavesHeld) || len(s.releases) != len(o.releases) {
		return false
	}
	for k, v := range s.leavesHeld {
		if o.leavesHeld[k] != v {
			return false
		}
	}
	for k := range s.releases {
		if !o.releases[k] {
			return false
		}
	}
	return true
}

// ---- the analysis driver ----

type loAnalysis struct {
	idx       *moduleIndex
	classes   *loClasses
	fset      *token.FileSet
	summaries map[*types.Func]*loSummary
	literals  []*loSummary // function-literal scopes (events only)
	cfgs      map[*ast.BlockStmt]*funcCFG
	bindings  map[*ast.BlockStmt]map[types.Object]methodValue

	// phase-2 transitive facts
	mayAcquire map[*types.Func]map[string]*loAcqWitness
	verbVia    map[*types.Func]*loVerbWitness
}

// loAcqWitness is why fn may acquire a class: either a direct site
// (next nil) or a call at site into next, which acquires it in turn.
type loAcqWitness struct {
	site token.Pos
	next *types.Func
	mode lockMode
}

// loVerbWitness is why fn may issue a fabric verb.
type loVerbWitness struct {
	site token.Pos
	name string // verb method name when next is nil
	next *types.Func
}

func newLockOrderAnalysis(pkgs []*Package) *loAnalysis {
	idx := buildModuleIndex(pkgs)
	return &loAnalysis{
		idx:        idx,
		classes:    discoverLockClasses(idx),
		fset:       pkgs[0].Fset,
		summaries:  map[*types.Func]*loSummary{},
		cfgs:       map[*ast.BlockStmt]*funcCFG{},
		bindings:   map[*ast.BlockStmt]map[types.Object]methodValue{},
		mayAcquire: map[*types.Func]map[string]*loAcqWitness{},
		verbVia:    map[*types.Func]*loVerbWitness{},
	}
}

func (a *loAnalysis) cfg(body *ast.BlockStmt) *funcCFG {
	g, ok := a.cfgs[body]
	if !ok {
		g = buildCFG(body)
		a.cfgs[body] = g
	}
	return g
}

func (a *loAnalysis) binds(p *Package, body *ast.BlockStmt) map[types.Object]methodValue {
	b, ok := a.bindings[body]
	if !ok {
		b = methodBindings(p, body)
		a.bindings[body] = b
	}
	return b
}

// sortedDecls lists the module's analyzable declared functions in
// position order (exempt packages skipped).
func (a *loAnalysis) sortedDecls() []*types.Func {
	var fns []*types.Func
	for fn, site := range a.idx.decls {
		if exemptFromLocking(site.pkg.Path) {
			continue
		}
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	return fns
}

// run executes the three phases and renders findings for the selected
// packages.
func (a *loAnalysis) run(selected []*Package) []Finding {
	sel := map[*Package]bool{}
	for _, p := range selected {
		sel[p] = true
	}
	a.solve()
	edges, findings := a.report(sel)
	_ = edges
	return findings
}

// solve runs phase 1 (per-function dataflow to a module-wide fixpoint on
// summary effects, then an event-recording pass, plus literal scopes) and
// phase 2 (transitive may-acquire / may-verb closure).
func (a *loAnalysis) solve() {
	decls := a.sortedDecls()
	// Phase 1a: effect fixpoint. The lattice is finite (held/release
	// sets over the class universe) and the transfer is monotone, so
	// this converges; the cap is a defensive bound.
	for round := 0; round < 40; round++ {
		changed := false
		for _, fn := range decls {
			site := a.idx.decls[fn]
			sum := a.analyzeBody(site.pkg, qualifiedFuncName(fn), site.fd.Body, false)
			if !sum.effectEquals(a.summaries[fn]) {
				changed = true
			}
			a.summaries[fn] = sum
		}
		if !changed {
			break
		}
	}
	// Phase 1b: recording pass — declared bodies with final summaries,
	// plus every function literal as its own empty-entry scope.
	for _, fn := range decls {
		site := a.idx.decls[fn]
		a.summaries[fn] = a.analyzeBody(site.pkg, qualifiedFuncName(fn), site.fd.Body, true)
	}
	a.literals = nil
	for _, p := range a.idx.pkgs {
		if exemptFromLocking(p.Path) {
			continue
		}
		for _, scope := range funcScopes(p) {
			if scope.lit == nil {
				continue
			}
			a.literals = append(a.literals, a.analyzeBody(p, shortPkg(p.Path)+"."+scope.name, scope.body, true))
		}
	}
	// Phase 2: transitive closure over the call graph.
	for round := 0; round < 40; round++ {
		changed := false
		for _, fn := range decls {
			if a.closeOver(fn) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// closeOver folds fn's direct events and its callees' transitive facts
// into mayAcquire/verbVia. Reports change. Witnesses are first-wins per
// class (deterministic given the fixed iteration order), except that a
// write-mode acquisition replaces a read-mode witness: the W edge exists
// in reality and is the one that can deadlock.
func (a *loAnalysis) closeOver(fn *types.Func) bool {
	sum := a.summaries[fn]
	if sum == nil {
		return false
	}
	acq := a.mayAcquire[fn]
	if acq == nil {
		acq = map[string]*loAcqWitness{}
		a.mayAcquire[fn] = acq
	}
	changed := false
	record := func(class string, w *loAcqWitness) {
		old := acq[class]
		if old == nil || (old.mode == modeR && w.mode == modeW) {
			acq[class] = w
			changed = true
		}
	}
	for i := range sum.acqs {
		ev := &sum.acqs[i]
		record(ev.class, &loAcqWitness{site: ev.pos, mode: ev.mode})
	}
	if a.verbVia[fn] == nil && len(sum.verbs) > 0 {
		a.verbVia[fn] = &loVerbWitness{site: sum.verbs[0].pos, name: sum.verbs[0].name}
		changed = true
	}
	for i := range sum.calls {
		ev := &sum.calls[i]
		for _, t := range ev.targets {
			for class, w := range a.mayAcquire[t] {
				record(class, &loAcqWitness{site: ev.pos, next: t, mode: w.mode})
			}
			if a.verbVia[fn] == nil && a.verbVia[t] != nil {
				a.verbVia[fn] = &loVerbWitness{site: ev.pos, next: t}
				changed = true
			}
		}
	}
	return changed
}

// ---- per-function dataflow ----

// analyzeBody runs the worklist dataflow over one function body. When
// record is true the pass replays the stabilized block-entry facts once
// more to collect events; otherwise only the exit effect matters.
func (a *loAnalysis) analyzeBody(p *Package, name string, body *ast.BlockStmt, record bool) *loSummary {
	g := a.cfg(body)
	bindings := a.binds(p, body)
	sum := &loSummary{leavesHeld: map[string]lockMode{}, releases: map[string]bool{}, pkg: p, name: name}
	in := map[*cfgBlock]*loState{g.entry: newLoState()}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[b].clone()
		a.transferBlock(p, nil, st, b, bindings)
		for _, e := range b.succs {
			ns := a.refineEdge(p, st, e)
			if cur, ok := in[e.to]; !ok {
				in[e.to] = ns.clone()
				work = append(work, e.to)
			} else if cur.joinInto(ns) {
				work = append(work, e.to)
			}
		}
	}
	if record {
		for _, b := range g.blocks {
			if st, ok := in[b]; ok {
				a.transferBlock(p, sum, st.clone(), b, bindings)
			}
		}
	}
	if exitSt := in[g.exit]; exitSt != nil {
		for class, mode := range exitSt.held {
			if !exitSt.def[class] {
				sum.leavesHeld[class] = mode
			}
		}
		for class := range exitSt.rel {
			sum.releases[class] = true
		}
		for class := range exitSt.def {
			if _, held := exitSt.held[class]; !held {
				sum.releases[class] = true
			}
		}
	}
	return sum
}

// transferBlock applies every node of b to st in order; when sum is
// non-nil, events are recorded into it.
func (a *loAnalysis) transferBlock(p *Package, sum *loSummary, st *loState, b *cfgBlock, bindings map[types.Object]methodValue) {
	deferCalls := map[*ast.CallExpr]bool{}
	goCalls := map[*ast.CallExpr]bool{}
	callErr := map[*ast.CallExpr]types.Object{}
	for _, n := range b.nodes {
		inspectSkipFuncLit(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.DeferStmt:
				deferCalls[c.Call] = true
			case *ast.GoStmt:
				goCalls[c.Call] = true
			case *ast.AssignStmt:
				// `x, err := call()` — remember which variable guards
				// the call's acquisitions (visited before the call).
				if len(c.Rhs) == 1 {
					if call, ok := c.Rhs[0].(*ast.CallExpr); ok && len(c.Lhs) > 0 {
						if obj := identObj2(p, c.Lhs[len(c.Lhs)-1]); obj != nil && isErrorType(obj.Type()) {
							callErr[call] = obj
						}
					}
				}
			case *ast.CallExpr:
				if !goCalls[c] {
					a.applyCall(p, sum, st, c, deferCalls[c], callErr[c], bindings)
				}
			}
			return true
		})
	}
}

// refineEdge adjusts the propagated state for a conditional edge:
//
//   - `if mu.TryLock()` — along the branch where the try failed, the
//     class is not held;
//   - `if err != nil` / `if err == nil` — along the nil edge, pending
//     acquisitions guarded by err promote into the held set; along the
//     non-nil edge they evaporate (the repo releases before error
//     returns).
func (a *loAnalysis) refineEdge(p *Package, st *loState, e cfgEdge) *loState {
	cond, negate := e.cond, e.negate
	for {
		if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
			cond, negate = u.X, !negate
			continue
		}
		break
	}
	switch cond := cond.(type) {
	case *ast.CallExpr:
		if !negate {
			return st
		}
		sel, ok := cond.Fun.(*ast.SelectorExpr)
		if !ok {
			return st
		}
		obj, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" ||
			(obj.Name() != "TryLock" && obj.Name() != "TryRLock") {
			return st
		}
		class := a.classOfExpr(p, sel.X)
		if class == "" {
			return st
		}
		ns := st.clone()
		delete(ns.held, class)
		return ns
	case *ast.BinaryExpr:
		if cond.Op != token.EQL && cond.Op != token.NEQ {
			return st
		}
		var errExpr ast.Expr
		switch {
		case isNilIdent(cond.Y):
			errExpr = cond.X
		case isNilIdent(cond.X):
			errExpr = cond.Y
		default:
			return st
		}
		obj := identObj2(p, errExpr)
		if obj == nil || st.pend[obj] == nil {
			return st
		}
		// Edge is taken when cond == !negate; work out whether that
		// means the error is nil on this edge.
		condTrue := !negate
		errIsNil := (cond.Op == token.EQL) == condTrue
		ns := st.clone()
		classes := ns.pend[obj]
		delete(ns.pend, obj)
		if errIsNil {
			for c, m := range classes {
				a.enterHeld(ns, c, m)
			}
		}
		return ns
	}
	return st
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// classOfExpr maps the receiver expression of a sync mutex method call to
// its lock class ("" when unclassified, e.g. a local mutex variable).
func (a *loAnalysis) classOfExpr(p *Package, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		obj := identObj(p, e)
		if obj == nil {
			return ""
		}
		if c, ok := a.classes.of[obj]; ok {
			return c
		}
		return a.classes.embeddedClass(obj.Type())
	case *ast.SelectorExpr:
		if obj := identObj(p, e.Sel); obj != nil {
			if c, ok := a.classes.of[obj]; ok {
				return c
			}
		}
		if tv, ok := p.Info.Types[e]; ok {
			return a.classes.embeddedClass(tv.Type)
		}
	case *ast.ParenExpr:
		return a.classOfExpr(p, e.X)
	case *ast.StarExpr:
		return a.classOfExpr(p, e.X)
	}
	return ""
}

// applyCall classifies one call: sync mutex transition, fabric verb,
// page-latch op, or resolved module call. errObj, when non-nil, is the
// error variable assigned from this call — fallible acquisitions are
// held only once it proves nil.
func (a *loAnalysis) applyCall(p *Package, sum *loSummary, st *loState, call *ast.CallExpr, deferred bool, errObj types.Object, bindings map[types.Object]methodValue) {
	// The method called, directly (mu.Lock()) or through a captured
	// method value (unlock := mu.Unlock; defer unlock()).
	var method methodValue
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		method.fn, _ = p.Info.Uses[fun.Sel].(*types.Func)
		method.recv = fun.X
	case *ast.Ident:
		method = bindings[identObj(p, fun)]
	}
	if fn := method.fn; fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "sync" && lockMethods[fn.Name()] {
			if class := a.classOfExpr(p, method.recv); class != "" {
				a.mutexTransition(sum, st, class, fn.Name(), call.Pos(), deferred)
			}
			return
		}
		if isFabricVerb(fn) {
			if sum != nil {
				sum.verbs = append(sum.verbs, loVerbEv{pos: call.Pos(), name: fn.Name(), held: copyHeld(st.held)})
			}
			return
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// An immediately- or defer-invoked literal runs in this
		// function's dynamic extent, so its net effect applies here (its
		// ordering events are recorded separately, as a literal scope).
		ls := a.analyzeBody(p, "", lit.Body, false)
		a.applyEffect(sum, st, ls.releases, ls.leavesHeld, call.Pos(), deferred, nil)
		return
	}
	obj := calleeFunc(p, call)
	isPL := false
	if obj != nil {
		if sig, ok := plSigOf(obj); ok {
			switch {
			case plAcquires[sig] != 0:
				a.recordCallEvent(p, sum, st, call, bindings)
				mode := plAcquires[sig]
				if sum != nil {
					// The ordering edge exists even when the attempt can
					// fail: a failed acquisition still blocked on it.
					sum.acqs = append(sum.acqs, loAcqEv{pos: call.Pos(), class: plClass, mode: mode, held: copyHeld(st.held)})
				}
				if errObj != nil {
					st.setPend(errObj, map[string]lockMode{plClass: mode})
				} else {
					a.enterHeld(st, plClass, mode)
				}
				return
			case plReleases[sig]:
				isPL = true
				a.release(st, plClass, deferred)
			case plDeferrals[sig]:
				isPL = true
				st.def[plClass] = true
			}
		}
	}
	targets := a.recordCallEvent(p, sum, st, call, bindings)
	if isPL {
		return
	}
	// Fold callee effects over the dispatch set (unions on both sides —
	// may-release, may-hold), then apply.
	relAll := map[string]bool{}
	heldAll := map[string]lockMode{}
	for _, t := range targets {
		ts := a.summaries[t]
		if ts == nil {
			continue
		}
		for c := range ts.releases {
			relAll[c] = true
		}
		for c, m := range ts.leavesHeld {
			if heldAll[c] < m {
				heldAll[c] = m
			}
		}
	}
	a.applyEffect(sum, st, relAll, heldAll, call.Pos(), deferred, errObj)
}

// applyEffect applies a callee's (or literal's) net effect at a call
// site. A deferred call runs at exit: its releases become deferred
// releases, and anything it would leave held is ignored — it cannot be
// held during the rest of this body. When the call's error result is
// captured, held classes are pending on it proving nil.
func (a *loAnalysis) applyEffect(sum *loSummary, st *loState, releases map[string]bool, leavesHeld map[string]lockMode, pos token.Pos, deferred bool, errObj types.Object) {
	if deferred {
		for c := range releases {
			st.def[c] = true
		}
		return
	}
	for c := range releases {
		a.release(st, c, false)
	}
	if len(leavesHeld) == 0 {
		return
	}
	if errObj != nil {
		st.setPend(errObj, leavesHeld)
		return
	}
	var classes []string
	for c := range leavesHeld {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		a.enterHeld(st, c, leavesHeld[c])
	}
}

// recordCallEvent resolves a call against the module graph and, when
// recording, snapshots the held set for the reporting phase.
func (a *loAnalysis) recordCallEvent(p *Package, sum *loSummary, st *loState, call *ast.CallExpr, bindings map[types.Object]methodValue) []*types.Func {
	targets := a.idx.resolveCall(p, call, bindings)
	if len(targets) == 0 {
		return nil
	}
	if sum != nil {
		sum.calls = append(sum.calls, loCallEv{pos: call.Pos(), held: copyHeld(st.held), targets: targets})
	}
	return targets
}

// mutexTransition applies one sync.Mutex/RWMutex method call.
func (a *loAnalysis) mutexTransition(sum *loSummary, st *loState, class, method string, pos token.Pos, deferred bool) {
	switch method {
	case "Lock":
		a.acquire(sum, st, class, modeW, pos)
	case "RLock":
		a.acquire(sum, st, class, modeR, pos)
	case "TryLock":
		a.tryAcquire(sum, st, class, modeW, pos)
	case "TryRLock":
		a.tryAcquire(sum, st, class, modeR, pos)
	case "Unlock", "RUnlock":
		a.release(st, class, deferred)
	}
}

// acquire records an acquisition event (held snapshot taken before the
// class enters the set) and marks the class held.
func (a *loAnalysis) acquire(sum *loSummary, st *loState, class string, mode lockMode, pos token.Pos) {
	if sum != nil {
		sum.acqs = append(sum.acqs, loAcqEv{pos: pos, class: class, mode: mode, held: copyHeld(st.held)})
	}
	a.enterHeld(st, class, mode)
}

// enterHeld adds a class to the held set; W dominates an existing R.
func (a *loAnalysis) enterHeld(st *loState, class string, mode lockMode) {
	if mode > st.held[class] {
		st.held[class] = mode
	}
}

// tryAcquire enters the held set (the branch refinement clears it on the
// failure edge) but witnesses no ordering edge: a try never blocks.
func (a *loAnalysis) tryAcquire(sum *loSummary, st *loState, class string, mode lockMode, pos token.Pos) {
	a.enterHeld(st, class, mode)
}

// release clears a held class; a deferred release runs at exit instead,
// and releasing an un-held class is a net release the caller owns.
func (a *loAnalysis) release(st *loState, class string, deferred bool) {
	if deferred {
		st.def[class] = true
		return
	}
	if _, ok := st.held[class]; ok {
		delete(st.held, class)
		return
	}
	st.rel[class] = true
}

// ---- phase 3: edges, cycles, findings ----

// loEdge is one acquisition-order edge: to was acquired (toMode) while
// from was held (fromMode), witnessed at pos (an acquisition site or the
// call site whose callee acquires).
type loEdge struct {
	from, to         string
	fromMode, toMode lockMode
	pos              token.Position
	path             string // "" for a same-function acquisition
}

func (e *loEdge) less(o *loEdge) bool {
	if e.pos.Filename != o.pos.Filename {
		return e.pos.Filename < o.pos.Filename
	}
	if e.pos.Line != o.pos.Line {
		return e.pos.Line < o.pos.Line
	}
	if e.pos.Column != o.pos.Column {
		return e.pos.Column < o.pos.Column
	}
	if e.from != o.from {
		return e.from < o.from
	}
	return e.to < o.to
}

// report builds the deduplicated edge set and the findings for the
// selected packages.
func (a *loAnalysis) report(sel map[*Package]bool) ([]*loEdge, []Finding) {
	edges := a.collectEdges()
	var findings []Finding
	findings = append(findings, a.cycleFindings(edges, sel)...)
	findings = append(findings, a.verbFindings(sel)...)
	return edges, findings
}

// allSummaries lists declared summaries (position order) then literal
// summaries.
func (a *loAnalysis) allSummaries() []*loSummary {
	var out []*loSummary
	for _, fn := range a.sortedDecls() {
		if s := a.summaries[fn]; s != nil {
			out = append(out, s)
		}
	}
	out = append(out, a.literals...)
	return out
}

// collectEdges turns recorded events into the deduplicated global
// acquisition-order edge set, sorted by witness position.
func (a *loAnalysis) collectEdges() []*loEdge {
	byKey := map[[2]string]*loEdge{}
	add := func(e *loEdge) {
		key := [2]string{e.from, e.to}
		old, ok := byKey[key]
		if !ok {
			byKey[key] = e
			return
		}
		// Merge: W dominates on both ends (the W witness is the one
		// that can block); earlier witness wins otherwise.
		if e.toMode > old.toMode || e.fromMode > old.fromMode {
			if e.toMode > old.toMode {
				old.toMode = e.toMode
				old.pos, old.path = e.pos, e.path
			}
			if e.fromMode > old.fromMode {
				old.fromMode = e.fromMode
			}
			return
		}
		if e.less(old) {
			*old = *e
		}
	}
	for _, sum := range a.allSummaries() {
		for i := range sum.acqs {
			ev := &sum.acqs[i]
			for from, fromMode := range ev.held {
				add(&loEdge{
					from: from, to: ev.class,
					fromMode: fromMode, toMode: ev.mode,
					pos: a.fset.Position(ev.pos),
				})
			}
		}
		for i := range sum.calls {
			ev := &sum.calls[i]
			if len(ev.held) == 0 {
				continue
			}
			for _, t := range ev.targets {
				for class, w := range a.mayAcquire[t] {
					for from, fromMode := range ev.held {
						add(&loEdge{
							from: from, to: class,
							fromMode: fromMode, toMode: w.mode,
							pos:  a.fset.Position(ev.pos),
							path: a.acquirePath(t, class),
						})
					}
				}
			}
		}
	}
	var out []*loEdge
	for _, e := range byKey {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// acquirePath renders the call chain from a callee down to the witnessed
// acquisition, for humans reading the finding.
func (a *loAnalysis) acquirePath(fn *types.Func, class string) string {
	var parts []string
	cur := fn
	for hops := 0; cur != nil && hops < 12; hops++ {
		parts = append(parts, qualifiedFuncName(cur))
		w := a.mayAcquire[cur][class]
		if w == nil || w.next == nil {
			if w != nil {
				parts = append(parts, a.fset.Position(w.site).String())
			}
			break
		}
		cur = w.next
	}
	return "via " + strings.Join(parts, " → ")
}

// verbPath renders the call chain from a callee down to the fabric verb.
func (a *loAnalysis) verbPath(fn *types.Func) string {
	var parts []string
	cur := fn
	for hops := 0; cur != nil && hops < 12; hops++ {
		parts = append(parts, qualifiedFuncName(cur))
		w := a.verbVia[cur]
		if w == nil || w.next == nil {
			if w != nil {
				parts = append(parts, fmt.Sprintf("%s at %s", w.name, a.fset.Position(w.site)))
			}
			break
		}
		cur = w.next
	}
	return "via " + strings.Join(parts, " → ")
}

// cycleFindings inserts edges in deterministic order and reports each
// cycle the moment its closing edge arrives, provided every consecutive
// acquisition around the cycle can actually block (a pure reader ring is
// not a deadlock). Self-edges — latch coupling on one class, ordered by
// instance (tree level), not by class — are excluded from cycle logic.
func (a *loAnalysis) cycleFindings(edges []*loEdge, sel map[*Package]bool) []Finding {
	adj := map[string][]*loEdge{}
	var out []Finding
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		if cyc := findConflictCycle(adj, e); cyc != nil && !cycleIsPageOrdered(cyc) {
			if a.posSelected(e.pos, sel) {
				var desc []string
				for _, ce := range cyc {
					step := fmt.Sprintf("%s(%s) acquired at %s while holding %s(%s)", ce.to, ce.toMode, ce.pos, ce.from, ce.fromMode)
					if ce.path != "" {
						step += " " + ce.path
					}
					desc = append(desc, step)
				}
				var ring []string
				for _, ce := range cyc {
					ring = append(ring, ce.from)
				}
				ring = append(ring, cyc[0].from)
				out = append(out, Finding{
					Analyzer: "lockorder",
					Pos:      e.pos,
					Message: fmt.Sprintf("lock-order cycle %s: %s; pick one global acquisition order",
						strings.Join(ring, " → "), strings.Join(desc, "; ")),
				})
			}
		}
		adj[e.from] = append(adj[e.from], e)
	}
	return out
}

// cycleIsPageOrdered reports a cycle confined to the page-latch classes,
// whose mutual order is governed by page instance rather than class
// (see pageOrdered). A cycle with at least one non-page class is always
// reported, even if it transits the page classes.
func cycleIsPageOrdered(cyc []*loEdge) bool {
	for _, e := range cyc {
		if !pageOrdered[e.from] || !pageOrdered[e.to] {
			return false
		}
	}
	return true
}

// findConflictCycle searches the existing graph for a path closing e
// into a deadlock-capable cycle: e.to ⇝ e.from where every handoff
// conflicts. Returns the cycle starting at e, or nil. The DFS state is
// (node, incoming acquisition mode), which fully determines which
// outgoing edges conflict.
func findConflictCycle(adj map[string][]*loEdge, e *loEdge) []*loEdge {
	type stKey struct {
		node string
		acq  lockMode
	}
	seen := map[stKey]bool{}
	var path []*loEdge
	var dfs func(node string, acq lockMode) bool
	dfs = func(node string, acq lockMode) bool {
		if node == e.from {
			// Wrap: the last acquisition (acq, into e.from) must
			// conflict with e's holder mode.
			return modeConflict(acq, e.fromMode)
		}
		k := stKey{node, acq}
		if seen[k] {
			return false
		}
		seen[k] = true
		for _, n := range adj[node] {
			if n.from == n.to || !modeConflict(acq, n.fromMode) {
				continue
			}
			path = append(path, n)
			if dfs(n.to, n.toMode) {
				return true
			}
			path = path[:len(path)-1]
		}
		return false
	}
	if !dfs(e.to, e.toMode) {
		return nil
	}
	return append([]*loEdge{e}, path...)
}

// verbFindings reports fabric verbs reached while a fabric-intolerant
// mutex class is held: verbs issued in the holding body and verbs reached
// through call paths.
func (a *loAnalysis) verbFindings(sel map[*Package]bool) []Finding {
	var out []Finding
	seen := map[token.Position]bool{}
	emit := func(pos token.Pos, held map[string]lockMode, path string) {
		var classes []string
		for c := range held {
			if _, ok := fabricTolerant[c]; ok {
				continue // designed to span the fabric; see the table
			}
			classes = append(classes, c)
		}
		if len(classes) == 0 {
			return
		}
		sort.Strings(classes)
		p := a.fset.Position(pos)
		if seen[p] || !a.posSelected(p, sel) {
			return
		}
		seen[p] = true
		out = append(out, Finding{
			Analyzer: "lockorder",
			Pos:      p,
			Message: fmt.Sprintf("fabric verb reached while holding %s (%s); release node-local latches before simulated network latency",
				strings.Join(classes, ", "), path),
		})
	}
	for _, sum := range a.allSummaries() {
		for i := range sum.verbs {
			ev := &sum.verbs[i]
			emit(ev.pos, ev.held, "verb issued here")
		}
		for i := range sum.calls {
			ev := &sum.calls[i]
			if len(ev.held) == 0 {
				continue
			}
			for _, t := range ev.targets {
				if a.verbVia[t] != nil {
					emit(ev.pos, ev.held, a.verbPath(t))
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// posSelected reports whether a position lies inside one of the
// pattern-selected packages (findings in dependency-only packages are
// suppressed: their directives were not loaded, and a narrower run should
// not police files it was not pointed at).
func (a *loAnalysis) posSelected(pos token.Position, sel map[*Package]bool) bool {
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

// qualifiedFuncName renders "pkg.Recv.Name" / "pkg.Name" for findings.
func qualifiedFuncName(fn *types.Func) string {
	name := fn.Name()
	if r := recvTypeName(fn); r != "" {
		name = r + "." + name
	}
	if fn.Pkg() != nil {
		name = shortPkg(fn.Pkg().Path()) + "." + name
	}
	return name
}

// ---- public lock-graph API (polarvet -lockgraph) ----

// LockGraphEdge is one acquisition-order edge of the module.
type LockGraphEdge struct {
	From, To         string
	FromMode, ToMode string // "R" or "W"
	Witness          token.Position
	Path             string // call chain for interprocedural edges, "" for direct
}

// LockGraph is the module's lock universe and observed acquisition
// orderings, as dumped by polarvet -lockgraph.
type LockGraph struct {
	Classes []string
	// FabricTolerant maps the classes designed to span fabric latency to
	// their rationale (the analyzer's fabricTolerant table, restricted to
	// classes that exist in this module).
	FabricTolerant map[string]string
	Edges          []LockGraphEdge
}

// BuildLockGraph loads the packages matching patterns and returns the
// acquisition-order graph the lockorder analyzer reasons over. Nodes are
// every discovered lock class (edge-less classes included).
func BuildLockGraph(mod *Module, patterns []string) (*LockGraph, error) {
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
		return &LockGraph{}, nil
	}
	a := newLockOrderAnalysis(pkgs)
	a.solve()
	edges := a.collectEdges()
	g := &LockGraph{Classes: append([]string(nil), a.classes.all...), FabricTolerant: map[string]string{}}
	for _, c := range g.Classes {
		if why, ok := fabricTolerant[c]; ok {
			g.FabricTolerant[c] = why
		}
	}
	for _, e := range edges {
		g.Edges = append(g.Edges, LockGraphEdge{
			From: e.from, To: e.to,
			FromMode: e.fromMode.String(), ToMode: e.toMode.String(),
			Witness: e.pos, Path: e.path,
		})
	}
	return g, nil
}

// DOT renders the graph in Graphviz dot syntax: one node per lock class,
// one edge per ordered acquisition pair, labeled with the witness site.
func (g *LockGraph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, c := range g.Classes {
		if _, ok := g.FabricTolerant[c]; ok {
			fmt.Fprintf(&b, "  %q [peripheries=2];\n", c) // fabric-tolerant by design
			continue
		}
		fmt.Fprintf(&b, "  %q;\n", c)
	}
	for _, e := range g.Edges {
		label := fmt.Sprintf("%s→%s %s:%d", e.FromMode, e.ToMode, baseName(e.Witness.Filename), e.Witness.Line)
		attrs := ""
		if e.From == e.To {
			attrs = ", style=dashed" // instance-ordered coupling on one class
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q%s];\n", e.From, e.To, label, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
