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
	return fabricVerbs[obj.Name()] && methodIs(obj, "internal/rdma", "Endpoint", obj.Name())
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

// Check implements Analyzer.
func (LockOrder) Check(prog *program) []Finding {
	a := prog.locks()
	return append(a.cycleFindings(), a.verbFindings()...)
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
	plClass:              "the global page latch is taken and held across RDMA by design (CAS fast path, home negotiation, sticky retention); its fabric cost is the paper's cost model",
	"cache.Frame.Latch":  "page materialization and B-tree latch coupling hold a frame latch while the page body or the child's PL crosses the fabric; instance-ordered by tree level",
	"cluster.Session.mu": "per-session serialization: one statement at a time per connection, each spanning full engine operations",
	"cluster.Proxy.gate": "the transparent-switchover fence: read-held across statements precisely so a handover can drain them; a failover holds it exclusively, which also serializes failovers",
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

// join merges o into s (s is a block-entry fact): held unions with W
// dominating, and releases (net and deferred) union too — may-release.
// The repo's error-path idiom (`committed := false; defer func() { if
// !committed { mt.Commit() } }()` next to a happy-path Commit) releases
// on *some* path in each shape; must-release intersection would call the
// pair a leak and drown the report in held-set pollution. The cost is
// that a class released on one path is considered off the books on all —
// the analyzer prefers missed findings over false ones. Reports change.
func (s *loState) join(o *loState) bool {
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
	held  map[string]lockMode
}

// loCallEv is one resolved module call with the classes held across it.
type loCallEv struct {
	pos     token.Pos
	held    map[string]lockMode
	targets []*funcInfo
}

// loVerbEv is one direct fabric verb with the classes held across it.
type loVerbEv struct {
	pos  token.Pos
	held map[string]lockMode
}

// loEvents are the ordering-relevant events of one function scope,
// recorded against its stabilized dataflow facts.
type loEvents struct {
	acqs  []loAcqEv
	calls []loCallEv
	verbs []loVerbEv
}

// loEffect is what one function means to its callers: the classes it
// leaves held and the classes it releases on the caller's behalf.
type loEffect struct {
	leavesHeld map[string]lockMode
	releases   map[string]bool
}

func (s *loEffect) equals(o *loEffect) bool {
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

// loAcqWitness is why a function may acquire a class: a direct site, or
// a call into a function that acquires it in turn.
type loAcqWitness struct {
	witness
	mode lockMode
}

// ---- the analysis driver ----

type loAnalysis struct {
	prog    *program
	classes *loClasses
	decls   []*funcInfo // analyzable declared functions, position order
	scopes  []*funcInfo // decls, then every analyzable function literal
	effects map[*funcInfo]*loEffect
	events  map[*funcInfo]*loEvents
	// mayAcquire is the transitive closure of acquisitions over the call
	// graph, per class, with the witness chain down to the site.
	mayAcquire map[*funcInfo]map[string]*loAcqWitness
	edges      []*loEdge
}

// locks solves the lock analysis on first use; LockOrder's findings and
// the result's lock graph are views of the same solve.
func (prog *program) locks() *loAnalysis {
	if prog.lo != nil {
		return prog.lo
	}
	a := &loAnalysis{
		prog:       prog,
		classes:    discoverLockClasses(prog.moduleIndex),
		effects:    map[*funcInfo]*loEffect{},
		events:     map[*funcInfo]*loEvents{},
		mayAcquire: map[*funcInfo]map[string]*loAcqWitness{},
	}
	prog.lo = a
	var lits []*funcInfo
	for _, f := range prog.funcs {
		switch {
		case exemptFromLocking(f.pkg.Path):
		case f.lit != nil:
			lits = append(lits, f)
		default:
			a.decls = append(a.decls, f)
		}
	}
	// Position order fixes which witness a first-wins fact records.
	sort.Slice(a.decls, func(i, j int) bool { return a.decls[i].fn.Pos() < a.decls[j].fn.Pos() })
	a.scopes = append(append(a.scopes, a.decls...), lits...)

	// Net effects: each body's dataflow, re-run until no summary moves.
	summarize(a.decls, a.effects, func(f *funcInfo) (*loEffect, bool) {
		eff := a.analyzeBody(f, nil)
		return eff, !eff.equals(a.effects[f])
	})
	// Events, against the final effects; every function literal is its
	// own empty-entry scope.
	for _, f := range a.scopes {
		a.events[f] = &loEvents{}
		a.analyzeBody(f, a.events[f])
	}
	// May-acquire: fold each function's direct acquisitions and its
	// callees' facts. Witnesses are first-wins per class, except that a
	// write-mode acquisition replaces a read-mode witness: the W edge
	// exists in reality and is the one that can deadlock.
	summarize(a.decls, a.mayAcquire, func(f *funcInfo) (map[string]*loAcqWitness, bool) {
		acq := a.mayAcquire[f]
		if acq == nil {
			acq = map[string]*loAcqWitness{}
		}
		changed := false
		record := func(class string, mode lockMode, w witness) {
			if old := acq[class]; old == nil || (old.mode == modeR && mode == modeW) {
				acq[class] = &loAcqWitness{witness: w, mode: mode}
				changed = true
			}
		}
		ev := a.events[f]
		for i := range ev.acqs {
			record(ev.acqs[i].class, ev.acqs[i].mode, witness{site: ev.acqs[i].pos})
		}
		for i := range ev.calls {
			for _, t := range ev.calls[i].targets {
				for class, w := range a.mayAcquire[t] {
					record(class, w.mode, witness{site: ev.calls[i].pos, next: t})
				}
			}
		}
		return acq, changed
	})
	a.edges = a.collectEdges()
	return a
}

// ---- per-function dataflow ----

// analyzeBody runs the dataflow over one function body and returns its
// net effect. When rec is non-nil the stabilized block-entry facts are
// replayed once more to record events into it.
func (a *loAnalysis) analyzeBody(f *funcInfo, rec *loEvents) *loEffect {
	in := forward(f.g, newLoState(),
		func(b *cfgBlock, st *loState) { a.transferBlock(f, nil, st, b) },
		func(st *loState, e cfgEdge) *loState { return a.refineEdge(f.pkg, st, e) })
	if rec != nil {
		for _, b := range f.g.blocks {
			if st, ok := in[b]; ok {
				a.transferBlock(f, rec, st.clone(), b)
			}
		}
	}
	eff := &loEffect{leavesHeld: map[string]lockMode{}, releases: map[string]bool{}}
	if exitSt := in[f.g.exit]; exitSt != nil {
		for class, mode := range exitSt.held {
			if !exitSt.def[class] {
				eff.leavesHeld[class] = mode
			}
		}
		for class := range exitSt.rel {
			eff.releases[class] = true
		}
		for class := range exitSt.def {
			if _, held := exitSt.held[class]; !held {
				eff.releases[class] = true
			}
		}
	}
	return eff
}

// transferBlock applies every call of b to st in order; when rec is
// non-nil, events are recorded into it. A spawned goroutine does not
// inherit the spawner's held set.
func (a *loAnalysis) transferBlock(f *funcInfo, rec *loEvents, st *loState, b *cfgBlock) {
	for _, cs := range b.calls {
		if !cs.spawned {
			a.applyCall(f.pkg, rec, st, cs)
		}
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
	if obj, isNil, ok := nilGuard(p, e); ok {
		classes := st.pend[obj]
		if classes == nil {
			return st
		}
		ns := st.clone()
		delete(ns.pend, obj)
		if isNil {
			for c, m := range classes {
				a.enterHeld(ns, c, m)
			}
		}
		return ns
	}
	cond, holds := edgeCond(e)
	call, ok := cond.(*ast.CallExpr)
	if !ok || holds {
		return st
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
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
// invoked literal, page-latch op, or resolved module call. When the call's
// error result is captured (cs.errVar), fallible acquisitions are held only
// once it proves nil.
func (a *loAnalysis) applyCall(p *Package, rec *loEvents, st *loState, cs *callSite) {
	pos := cs.call.Pos()
	if fn := cs.callee; fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && lockMethods[fn.Name()] {
		// Called directly (mu.Lock()) or through a captured method value
		// (unlock := mu.Unlock; defer unlock()).
		if class := a.classOfExpr(p, cs.recv); class != "" {
			a.mutexTransition(rec, st, class, fn.Name(), pos, cs.deferred)
		}
		return
	}
	if cs.verb != "" {
		if rec != nil {
			rec.verbs = append(rec.verbs, loVerbEv{pos: pos, held: copyHeld(st.held)})
		}
		return
	}
	if cs.lit != nil {
		// An immediately- or defer-invoked literal runs in this
		// function's dynamic extent, so its net effect applies here (its
		// ordering events are recorded separately, as a literal scope).
		eff := a.analyzeBody(cs.lit, nil)
		a.applyEffect(st, eff.releases, eff.leavesHeld, cs.deferred, nil)
		return
	}
	// recordCall snapshots the held set across a resolved module call.
	recordCall := func() {
		if rec != nil && len(cs.targets) > 0 {
			rec.calls = append(rec.calls, loCallEv{pos: pos, held: copyHeld(st.held), targets: cs.targets})
		}
	}
	if cs.callee != nil {
		if sig, ok := plSigOf(cs.callee); ok {
			switch {
			case plAcquires[sig] != 0:
				recordCall()
				mode := plAcquires[sig]
				if rec != nil {
					// The ordering edge exists even when the attempt can
					// fail: a failed acquisition still blocked on it.
					rec.acqs = append(rec.acqs, loAcqEv{pos: pos, class: plClass, mode: mode, held: copyHeld(st.held)})
				}
				if cs.errVar != nil {
					st.setPend(cs.errVar, map[string]lockMode{plClass: mode})
				} else {
					a.enterHeld(st, plClass, mode)
				}
				return
			case plReleases[sig]:
				a.release(st, plClass, cs.deferred)
				recordCall()
				return
			case plDeferrals[sig]:
				st.def[plClass] = true
				recordCall()
				return
			}
		}
	}
	recordCall()
	// Fold callee effects over the dispatch set (unions on both sides —
	// may-release, may-hold), then apply.
	relAll := map[string]bool{}
	heldAll := map[string]lockMode{}
	for _, t := range cs.targets {
		ts := a.effects[t]
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
	a.applyEffect(st, relAll, heldAll, cs.deferred, cs.errVar)
}

// applyEffect applies a callee's (or literal's) net effect at a call
// site. A deferred call runs at exit: its releases become deferred
// releases, and anything it would leave held is ignored — it cannot be
// held during the rest of this body. When the call's error result is
// captured, held classes are pending on it proving nil.
func (a *loAnalysis) applyEffect(st *loState, releases map[string]bool, leavesHeld map[string]lockMode, deferred bool, errObj types.Object) {
	if deferred {
		for c := range releases {
			st.def[c] = true
		}
		return
	}
	for c := range releases {
		a.release(st, c, false)
	}
	if errObj != nil && len(leavesHeld) > 0 {
		st.setPend(errObj, leavesHeld)
		return
	}
	for c, m := range leavesHeld {
		a.enterHeld(st, c, m)
	}
}

// mutexTransition applies one sync.Mutex/RWMutex method call. An
// acquisition event snapshots the held set before the class enters it. A
// try enters the held set too (the branch refinement clears it on the
// failure edge) but witnesses no ordering edge: a try never blocks.
func (a *loAnalysis) mutexTransition(rec *loEvents, st *loState, class, method string, pos token.Pos, deferred bool) {
	mode := modeW
	if method == "RLock" || method == "TryRLock" {
		mode = modeR
	}
	switch method {
	case "Lock", "RLock":
		if rec != nil {
			rec.acqs = append(rec.acqs, loAcqEv{pos: pos, class: class, mode: mode, held: copyHeld(st.held)})
		}
		a.enterHeld(st, class, mode)
	case "TryLock", "TryRLock":
		a.enterHeld(st, class, mode)
	case "Unlock", "RUnlock":
		a.release(st, class, deferred)
	}
}

// enterHeld adds a class to the held set; W dominates an existing R.
func (a *loAnalysis) enterHeld(st *loState, class string, mode lockMode) {
	if mode > st.held[class] {
		st.held[class] = mode
	}
}

// release clears a held class; a deferred release runs at exit instead,
// and releasing an un-held class is a net release the caller owns. It
// also clears the class from every pending set: in `err := f(); g(); if
// err != nil {...}`, what g released is not held on err's nil edge.
func (a *loAnalysis) release(st *loState, class string, deferred bool) {
	if deferred {
		st.def[class] = true
		return
	}
	for obj, classes := range st.pend {
		delete(classes, class)
		if len(classes) == 0 {
			delete(st.pend, obj)
		}
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
	fset := a.prog.fset
	// path renders the call chain from a callee down to the witnessed
	// acquisition of class, for humans reading the finding.
	path := func(t *funcInfo, class string) string {
		link := func(f *funcInfo) *witness {
			if w := a.mayAcquire[f][class]; w != nil {
				return &w.witness
			}
			return nil
		}
		return a.prog.via(t, link(t), link, token.Position.String)
	}
	for _, f := range a.scopes {
		ev := a.events[f]
		for i := range ev.acqs {
			acq := &ev.acqs[i]
			for from, fromMode := range acq.held {
				add(&loEdge{
					from: from, to: acq.class,
					fromMode: fromMode, toMode: acq.mode,
					pos: fset.Position(acq.pos),
				})
			}
		}
		for i := range ev.calls {
			call := &ev.calls[i]
			if len(call.held) == 0 {
				continue
			}
			for _, t := range call.targets {
				for class, w := range a.mayAcquire[t] {
					for from, fromMode := range call.held {
						add(&loEdge{
							from: from, to: class,
							fromMode: fromMode, toMode: w.mode,
							pos:  fset.Position(call.pos),
							path: path(t, class),
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

// cycleFindings inserts edges in deterministic order and reports each
// cycle the moment its closing edge arrives, provided every consecutive
// acquisition around the cycle can actually block (a pure reader ring is
// not a deadlock). Self-edges — latch coupling on one class, ordered by
// instance (tree level), not by class — are excluded from cycle logic.
func (a *loAnalysis) cycleFindings() []Finding {
	adj := map[string][]*loEdge{}
	var out []Finding
	for _, e := range a.edges {
		if e.from == e.to {
			continue
		}
		if cyc := findConflictCycle(adj, e); cyc != nil && !cycleIsPageOrdered(cyc) {
			var desc, ring []string
			for _, ce := range cyc {
				step := fmt.Sprintf("%s(%s) acquired at %s while holding %s(%s)", ce.to, ce.toMode, ce.pos, ce.from, ce.fromMode)
				if ce.path != "" {
					step += " " + ce.path
				}
				desc = append(desc, step)
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
// through call paths (which functions reach the fabric, and how, is the
// program's cost facts).
func (a *loAnalysis) verbFindings() []Finding {
	var out []Finding
	seen := map[token.Pos]bool{}
	emit := func(pos token.Pos, held map[string]lockMode, path string) {
		var classes []string
		for c := range held {
			if _, ok := fabricTolerant[c]; ok {
				continue // designed to span the fabric; see the table
			}
			classes = append(classes, c)
		}
		if len(classes) == 0 || seen[pos] {
			return
		}
		seen[pos] = true
		sort.Strings(classes)
		out = append(out, Finding{
			Analyzer: "lockorder",
			Pos:      a.prog.fset.Position(pos),
			Message: fmt.Sprintf("fabric verb reached while holding %s (%s); release node-local latches before simulated network latency",
				strings.Join(classes, ", "), path),
		})
	}
	for _, f := range a.scopes {
		ev := a.events[f]
		for i := range ev.verbs {
			emit(ev.verbs[i].pos, ev.verbs[i].held, "verb issued here")
		}
		for i := range ev.calls {
			call := &ev.calls[i]
			if len(call.held) == 0 {
				continue
			}
			for _, t := range call.targets {
				if a.prog.fabric.reaches(t) {
					_, verb := worstCost(a.prog.fabric.cost[t])
					emit(call.pos, call.held, a.prog.fabric.path(t, t, verb))
					break
				}
			}
		}
	}
	return out
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

// ---- the lock graph, as a view of the result ----

// LockGraphEdge is one acquisition-order edge of the module.
type LockGraphEdge struct {
	From     string `json:"from"`
	To       string `json:"to"`
	FromMode string `json:"fromMode"` // "R" or "W"
	ToMode   string `json:"toMode"`
	Witness  string `json:"witness"`        // file:line:col of the acquisition or call
	Path     string `json:"path,omitempty"` // call chain for interprocedural edges
}

// LockGraph is the module's lock universe and observed acquisition
// orderings. Nodes are every discovered lock class (edge-less classes
// included).
type LockGraph struct {
	Classes []string `json:"classes"`
	// FabricTolerant maps the classes designed to span fabric latency to
	// their rationale (the analyzer's fabricTolerant table, restricted to
	// classes that exist in this module).
	FabricTolerant map[string]string `json:"fabricTolerant"`
	Edges          []LockGraphEdge   `json:"edges"`
}

// LockGraph returns the acquisition-order graph the lockorder analyzer
// reasons over, from the run's one lock solve.
func (r *Result) LockGraph() *LockGraph {
	a := r.prog.locks()
	g := &LockGraph{Classes: append([]string(nil), a.classes.all...), FabricTolerant: map[string]string{}}
	for _, c := range g.Classes {
		if why, ok := fabricTolerant[c]; ok {
			g.FabricTolerant[c] = why
		}
	}
	for _, e := range a.edges {
		g.Edges = append(g.Edges, LockGraphEdge{
			From: e.from, To: e.to,
			FromMode: e.fromMode.String(), ToMode: e.toMode.String(),
			Witness: e.pos.String(), Path: e.path,
		})
	}
	return g
}
