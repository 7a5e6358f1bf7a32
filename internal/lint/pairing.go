package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Pairing is the path-sensitive acquire/release analyzer. The repo's
// correctness argument leans on a handful of paired resources — a
// mini-transaction opened by BeginMtr must commit (its commit point is
// where invalidations are published, §3.1.4), a fetched frame's pin
// must drop (or remote eviction wedges), a PL latch must be released
// (or an SMO blocks the whole cluster, §3.2), an attached endpoint must
// detach. Pairing walks every function's CFG and reports any non-crash
// path that exits with such a resource held and no release — scheduled
// directly, by defer, or by a deferred closure — covering it. Error
// returns are refined along `err != nil` edges, so the common
//
//	f, err := e.Fetch(id)
//	if err != nil { return err } // no frame was pinned here
//
// shape is understood, as is `f := cache.Get(id)` being held only on
// the f != nil branch.
//
// Ownership transfers end tracking instead of reporting: returning the
// resource, storing it into a struct field / map / slice, sending it on
// a channel, capturing it in a closure, or appending it hand the
// release obligation to someone else. Intra-package summaries extend
// the analysis one level across calls: a local function that releases a
// parameter on every path counts as a release at its call sites, and a
// local function that returns an acquired resource counts as an
// acquire. internal/rdma is exempt (it implements the fabric the pairs
// protect).
type Pairing struct{}

// Name implements Analyzer.
func (Pairing) Name() string { return "pairing" }

// pairKind says which operand of an acquire or release call names the
// resource.
type pairKind int

const (
	idResult pairKind = iota // the call's first result
	idRecv                   // the method receiver
	idArg0                   // the first argument
)

// guardKind says how an acquire's success is observed.
type guardKind int

const (
	guardNone      guardKind = iota
	guardErr                 // acquired iff the trailing error result is nil
	guardNilResult           // acquired iff the result is non-nil
)

// releaseSpec matches one releasing method.
type releaseSpec struct {
	pkg, recv, method string
	id                pairKind
}

// pairSpec matches one acquiring method and lists its releases.
type pairSpec struct {
	pkg, recv, method string
	id                pairKind
	guard             guardKind
	relByArg          bool // release matches the acquire's first argument, not its result
	what              string
	releases          []releaseSpec
}

var unpinReleases = []releaseSpec{
	{"internal/cache", "Frame", "Unpin", idRecv},
	{"internal/engine", "Engine", "Unpin", idArg0},
	{"internal/btree", "Store", "Unpin", idArg0},
}

var plxReleases = []releaseSpec{
	{"internal/engine", "Engine", "PLUnlockX", idArg0},
	{"internal/engine", "Mtr", "DeferPLUnlockX", idArg0},
	{"internal/btree", "Mtr", "DeferPLUnlockX", idArg0},
}

var plsReleases = []releaseSpec{
	{"internal/engine", "Engine", "PLUnlockS", idArg0},
	{"internal/btree", "Store", "PLUnlockS", idArg0},
}

var pairTable = []pairSpec{
	{pkg: "internal/engine", recv: "Engine", method: "BeginMtr", id: idResult, what: "mini-transaction",
		releases: []releaseSpec{
			{"internal/engine", "Mtr", "Commit", idRecv},
			{"internal/engine", "Mtr", "release", idRecv},
		}},
	{pkg: "internal/engine", recv: "Engine", method: "Fetch", id: idResult, guard: guardErr,
		what: "pinned frame", releases: unpinReleases},
	{pkg: "internal/btree", recv: "Store", method: "Fetch", id: idResult, guard: guardErr,
		what: "pinned frame", releases: unpinReleases},
	{pkg: "internal/engine", recv: "Engine", method: "FetchNew", id: idResult, guard: guardErr,
		what: "pinned frame", releases: unpinReleases},
	{pkg: "internal/btree", recv: "Store", method: "FetchNew", id: idResult, guard: guardErr,
		what: "pinned frame", releases: unpinReleases},
	{pkg: "internal/cache", recv: "Cache", method: "Get", id: idResult, guard: guardNilResult,
		what: "pinned frame", releases: unpinReleases},
	{pkg: "internal/cache", recv: "Frame", method: "Pin", id: idRecv,
		what: "pinned frame", releases: unpinReleases},
	{pkg: "internal/cache", recv: "Frame", method: "MtrPin", id: idRecv,
		what: "mtr-pinned frame", releases: []releaseSpec{{"internal/cache", "Frame", "MtrUnpin", idRecv}}},
	{pkg: "internal/engine", recv: "Engine", method: "PLLockX", id: idArg0, guard: guardErr,
		what: "global page X-latch", releases: plxReleases},
	{pkg: "internal/btree", recv: "Store", method: "PLLockX", id: idArg0, guard: guardErr,
		what: "global page X-latch", releases: plxReleases},
	{pkg: "internal/engine", recv: "Engine", method: "PLLockS", id: idArg0, guard: guardErr,
		what: "global page S-latch", releases: plsReleases},
	{pkg: "internal/btree", recv: "Store", method: "PLLockS", id: idArg0, guard: guardErr,
		what: "global page S-latch", releases: plsReleases},
	{pkg: "internal/rmem", recv: "PLManager", method: "LockX", id: idArg0, guard: guardErr,
		what: "global page X-latch", releases: []releaseSpec{{"internal/rmem", "PLManager", "UnlockX", idArg0}}},
	{pkg: "internal/rmem", recv: "PLManager", method: "LockS", id: idArg0, guard: guardErr,
		what: "global page S-latch", releases: []releaseSpec{{"internal/rmem", "PLManager", "UnlockS", idArg0}}},
	// Attach carries a Detach obligation; MustAttach and MustAttachOrGet
	// are deliberately absent — they are the bootstrap forms, wiring
	// process-lifetime endpoints that only the fabric tears down.
	{pkg: "internal/rdma", recv: "Fabric", method: "Attach", id: idResult, guard: guardErr, relByArg: true,
		what: "attached endpoint", releases: []releaseSpec{{"internal/rdma", "Fabric", "Detach", idArg0}}},
}

// pairFact is one live obligation on some path.
type pairFact struct {
	spec     *pairSpec    // nil for summary-seeded parameter facts
	key      string       // rendered identity expression for release matching
	pos      token.Pos    // acquire site
	obj      types.Object // variable bound to the resource, if any
	guardObj types.Object // error / nil-guard variable, if any
	guard    guardKind    // pending guard; guardNone once refined
	deferred bool         // a deferred release covers this fact
}

func (f pairFact) id() string {
	what := ""
	if f.spec != nil {
		what = f.spec.what
	}
	return fmt.Sprintf("%s|%s|%d|%d|%t", f.key, what, f.pos, f.guard, f.deferred)
}

// pairState is the set of live facts, keyed by fact id; merging at CFG
// joins is set union.
type pairState map[string]pairFact

func (s pairState) clone() pairState {
	out := make(pairState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s pairState) join(from pairState) bool {
	changed := false
	for k, v := range from {
		if _, ok := s[k]; !ok {
			s[k] = v
			changed = true
		}
	}
	return changed
}

// pairSummary is what one module function means to its callers.
type pairSummary struct {
	releases map[int]bool        // parameter index -> released on every path
	stores   map[int]bool        // parameter index -> handed to a new owner (stored, returned)
	returned map[int][]*pairSpec // result index -> acquired resources it hands back
}

// Check implements Analyzer. Summaries come first, as one module-wide
// fixpoint: an obligation handed to a helper — in this package or an
// exported one in another — is tracked through that helper's summary. (The
// shared type-check universe means a cross-package callee is the same
// *types.Func that indexes its body.) rdma's own functions are not
// summarized, so calls into the fabric stay conservatively treated.
func (Pairing) Check(prog *program) []Finding {
	summaries := map[*funcInfo]*pairSummary{}
	adapted := map[*pairSpec]*pairSpec{}
	analyze := func(f *funcInfo, report bool) *pairAnalysis {
		a := &pairAnalysis{prog: prog, p: f.pkg, scope: f, summaries: summaries, adapted: adapted, report: report}
		a.run()
		return a
	}
	summarize(prog.funcs, summaries, func(f *funcInfo) (*pairSummary, bool) {
		if f.fn == nil || isFabricPkg(f.pkg) {
			return nil, false
		}
		ns := analyze(f, false).summary()
		// An empty summary is still knowledge — "borrows all its
		// parameters" — and must land in the map so callers don't fall
		// back to the conservative unknown-callee treatment.
		old := summaries[f]
		return ns, old == nil || !samePairSummary(old, ns)
	})
	var out []Finding
	for _, f := range prog.funcs {
		if !isFabricPkg(f.pkg) {
			out = append(out, analyze(f, true).findings...)
		}
	}
	return out
}

// isFabricPkg reports internal/rdma, which implements the fabric the
// pairing and regionescape invariants protect and is exempt from both.
func isFabricPkg(p *Package) bool { return strings.HasSuffix(p.Path, "internal/rdma") }

func samePairSummary(a, b *pairSummary) bool {
	if len(a.releases) != len(b.releases) || len(a.stores) != len(b.stores) || len(a.returned) != len(b.returned) {
		return false
	}
	for k, v := range a.releases {
		if b.releases[k] != v {
			return false
		}
	}
	for k, v := range a.stores {
		if b.stores[k] != v {
			return false
		}
	}
	for k, bv := range b.returned {
		av := a.returned[k]
		if len(av) != len(bv) {
			return false
		}
		for _, spec := range bv {
			found := false
			for _, s := range av {
				if s == spec {
					found = true
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// pairAnalysis runs the dataflow over one function scope.
type pairAnalysis struct {
	prog      *program
	p         *Package
	scope     *funcInfo
	summaries map[*funcInfo]*pairSummary
	adapted   map[*pairSpec]*pairSpec // interned result-position variants of specs
	report    bool

	findings []Finding
	reported map[string]bool

	// summary-pass outputs
	paramObjs   map[types.Object]int // seeded parameter object -> index
	paramLeaked map[int]bool
	paramStored map[int]bool
	returned    map[int][]*pairSpec
}

// summaryOf is what a callee means to this scope, nil when unknown.
func (a *pairAnalysis) summaryOf(obj *types.Func) *pairSummary {
	return a.summaries[a.prog.decls[obj]]
}

func (a *pairAnalysis) run() {
	a.reported = map[string]bool{}
	a.paramObjs = map[types.Object]int{}
	a.paramLeaked = map[int]bool{}
	a.paramStored = map[int]bool{}
	a.returned = map[int][]*pairSpec{}

	entry := pairState{}
	if !a.report && a.scope.decl != nil {
		// Summary pass: seed a fact per named parameter to learn which
		// parameters the function releases on every path.
		idx := 0
		for _, field := range a.scope.typ.Params.List {
			for _, name := range field.Names {
				if name.Name != "_" {
					if obj := a.p.Info.Defs[name]; obj != nil {
						a.paramObjs[obj] = idx
						f := pairFact{key: name.Name, pos: name.Pos(), obj: obj}
						entry[f.id()] = f
					}
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}

	g := a.scope.g
	in := forward(g, entry, a.applyBlock, a.refine)

	// A function body that falls off its closing brace is an exit too.
	if g.fallsOff != nil {
		if st0 := in[g.fallsOff]; st0 != nil {
			st := st0.clone()
			a.applyBlock(g.fallsOff, st)
			a.checkExit(st, a.scope.body.End())
		}
	}
}

// summary derives the pass results for the analyzed declaration.
func (a *pairAnalysis) summary() *pairSummary {
	s := &pairSummary{releases: map[int]bool{}, stores: a.paramStored, returned: a.returned}
	for _, idx := range a.paramObjs {
		if !a.paramLeaked[idx] {
			s.releases[idx] = true
		}
	}
	return s
}

// applyBlock is the transfer function for one CFG block.
func (a *pairAnalysis) applyBlock(blk *cfgBlock, st pairState) {
	for _, n := range blk.nodes {
		a.applyNode(st, n)
	}
}

func (a *pairAnalysis) applyNode(st pairState, n ast.Node) {
	switch s := n.(type) {
	case *ast.DeferStmt:
		a.applyDefer(st, s.Call)
		return
	case *ast.ReturnStmt:
		a.applyReleases(st, s)
		a.applyReturn(st, s)
		return
	}
	a.applyReleases(st, n)
	a.applyTransfers(st, n)
	a.applyAcquire(st, n)
}

// applyDefer marks facts released by a deferred call — either a direct
// release (`defer f.Unpin()`) or a deferred closure whose body releases
// (`defer func() { if !committed { mt.Commit() } }()`).
func (a *pairAnalysis) applyDefer(st pairState, call *ast.CallExpr) {
	var hits []relHit
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				hits = append(hits, a.releaseHits(c)...)
			}
			return true
		})
	} else {
		hits = a.releaseHits(call)
	}
	for id, f := range st {
		for _, hit := range hits {
			if hit.clears(f) {
				delete(st, id)
				f.deferred = true
				st[f.id()] = f
				break
			}
		}
	}
}

// relHit is one releasing effect of a call: the rendered identity it
// releases and, for table releases, the matched releaseSpec (nil for
// summary-derived releases, which clear any key-compatible fact).
type relHit struct {
	key string
	rel *releaseSpec
}

// clears reports whether this release discharges fact f. The keys must
// name the same resource or a selector path into it (Unpin(n.f) clears
// the latch fact on n and the summary fact on the parameter n), and a
// table release must be one the fact's own spec lists — e.Unpin(f)
// never discharges a PL latch that happens to share the key f.
func (h relHit) clears(f pairFact) bool {
	if !keyRelated(f.key, h.key) {
		return false
	}
	if h.rel == nil || f.spec == nil {
		return true
	}
	for _, r := range f.spec.releases {
		if r == *h.rel {
			return true
		}
	}
	return false
}

// keyUnder reports whether key is name or a selector path into it.
func keyUnder(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+".")
}

// keyRelated reports whether either rendered identity is a selector
// path into the other.
func keyRelated(a, b string) bool {
	return keyUnder(a, b) || keyUnder(b, a)
}

// releaseHits returns the releasing effects of a call: table releases
// plus module functions known (by summary) to release a parameter on
// every path.
func (a *pairAnalysis) releaseHits(call *ast.CallExpr) []relHit {
	var out []relHit
	if obj := calleeFunc(a.p, call); obj != nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			for i := range pairTable {
				for j := range pairTable[i].releases {
					r := &pairTable[i].releases[j]
					if !methodIs(obj, r.pkg, r.recv, r.method) {
						continue
					}
					switch r.id {
					case idRecv:
						out = append(out, relHit{key: types.ExprString(sel.X), rel: r})
					case idArg0:
						if len(call.Args) > 0 {
							out = append(out, relHit{key: types.ExprString(call.Args[0]), rel: r})
						}
					}
				}
			}
		}
		if sum := a.summaryOf(obj); sum != nil {
			for i := range call.Args {
				if sum.releases[i] {
					out = append(out, relHit{key: types.ExprString(call.Args[i])})
				}
			}
		}
	}
	return out
}

func (a *pairAnalysis) applyReleases(st pairState, n ast.Node) {
	inspectSkipFuncLit(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, hit := range a.releaseHits(call) {
			for id, f := range st {
				if hit.clears(f) {
					delete(st, id)
				}
			}
		}
		return true
	})
}

// applyTransfers removes facts whose resource is handed to another
// owner inside n: stored, sent, appended, or captured by a closure.
func (a *pairAnalysis) applyTransfers(st pairState, n ast.Node) {
	transferObj := func(o types.Object) {
		for id, f := range st {
			if f.obj != nil && f.obj == o {
				delete(st, id)
				a.markTransferredParam(f)
			}
		}
	}
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			ident, ok := rhs.(*ast.Ident)
			if !ok {
				continue
			}
			o := identObj(a.p, ident)
			if o == nil {
				continue
			}
			if li, ok := as.Lhs[i].(*ast.Ident); ok && li.Name != "_" {
				// Pure alias (`prev = p`): the obligation follows the
				// new name, so a later release through the alias —
				// t.releaseX(mt, prev) — still discharges it.
				a.rekey(st, o, ident.Name, identObj(a.p, li), li.Name)
			} else {
				transferObj(o) // stored into a field/slice: new owner
			}
		}
	}
	inspectSkipFuncLit(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.CompositeLit:
			for _, el := range c.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if ident, ok := el.(*ast.Ident); ok {
					if o := identObj(a.p, ident); o != nil {
						transferObj(o)
					}
				}
			}
		case *ast.SendStmt:
			if ident, ok := c.Value.(*ast.Ident); ok {
				if o := identObj(a.p, ident); o != nil {
					transferObj(o)
				}
			}
		case *ast.CallExpr:
			if fun, ok := c.Fun.(*ast.Ident); ok && fun.Name == "append" {
				for _, arg := range c.Args[1:] {
					if ident, ok := arg.(*ast.Ident); ok {
						if o := identObj(a.p, ident); o != nil {
							transferObj(o)
						}
					}
				}
				return true
			}
			// A module callee that stores a parameter takes over the
			// obligation: `retained.push(cur)` moves cur into the
			// container that releaseAll later drains.
			if obj := calleeFunc(a.p, c); obj != nil {
				if sum := a.summaryOf(obj); sum != nil {
					for i, arg := range c.Args {
						if !sum.stores[i] {
							continue
						}
						argKey := types.ExprString(arg)
						argObj := identObj2(a.p, arg)
						for id, f := range st {
							if (argObj != nil && f.obj == argObj) || keyRelated(f.key, argKey) {
								delete(st, id)
								a.markTransferredParam(f)
							}
						}
					}
				}
			}
		case *ast.FuncLit:
			// The closure takes over the obligation (it may run later,
			// on another goroutine); its own body is analyzed as a
			// separate scope.
			ast.Inspect(c.Body, func(inner ast.Node) bool {
				if ident, ok := inner.(*ast.Ident); ok {
					if o := a.p.Info.Uses[ident]; o != nil {
						transferObj(o)
					}
				}
				return true
			})
		}
		return true
	})
}

// rekey renames facts tracked under (fromObj, fromName) to the alias
// (toObj, toName), dropping any stale facts already held under the
// alias (the assignment overwrote that binding).
func (a *pairAnalysis) rekey(st pairState, fromObj types.Object, fromName string, toObj types.Object, toName string) {
	var moved []pairFact
	for id, f := range st {
		switch {
		case (fromObj != nil && f.obj == fromObj) || keyUnder(f.key, fromName):
			delete(st, id)
			if keyUnder(f.key, fromName) {
				f.key = toName + strings.TrimPrefix(f.key, fromName)
			} else {
				f.key = toName
			}
			if f.obj == fromObj {
				f.obj = toObj
			}
			moved = append(moved, f)
		case (toObj != nil && f.obj == toObj) || keyUnder(f.key, toName):
			delete(st, id)
		}
	}
	for _, f := range moved {
		st[f.id()] = f
	}
}

// applyAcquire creates facts for acquiring calls appearing as a whole
// statement or as the single right-hand side of an assignment. An
// acquire nested in a return or a larger expression transfers
// immediately and is not tracked.
func (a *pairAnalysis) applyAcquire(st pairState, n ast.Node) {
	var lhs []ast.Expr
	var call *ast.CallExpr
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			call, _ = s.Rhs[0].(*ast.CallExpr)
			lhs = s.Lhs
		}
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	}
	if call == nil {
		return
	}
	obj := calleeFunc(a.p, call)
	if obj == nil {
		return
	}

	bind := func(resultIdx int, spec *pairSpec, guard guardKind) {
		f := pairFact{spec: spec, pos: call.Pos(), guard: guard}
		switch spec.id {
		case idResult:
			if resultIdx < len(lhs) {
				if _, isIdent := lhs[resultIdx].(*ast.Ident); !isIdent {
					// `eps[i] = attach(...)`: stored straight into a
					// field or slice — ownership transfers immediately.
					return
				}
				f.key = types.ExprString(lhs[resultIdx])
				f.obj = identObj2(a.p, lhs[resultIdx])
			} else {
				f.key = types.ExprString(call)
			}
			if spec.relByArg && len(call.Args) > 0 {
				f.key = types.ExprString(call.Args[0])
			}
		case idRecv:
			sel := call.Fun.(*ast.SelectorExpr)
			f.key = types.ExprString(sel.X)
			f.obj = identObj2(a.p, sel.X)
		case idArg0:
			if len(call.Args) == 0 {
				return
			}
			f.key = types.ExprString(call.Args[0])
			f.obj = identObj2(a.p, call.Args[0])
		}
		if f.key == "_" {
			f.obj = nil
		}
		switch guard {
		case guardErr:
			// The error is the trailing result; with a full assignment
			// it is the last LHS.
			if len(lhs) > 0 {
				f.guardObj = identObj2(a.p, lhs[len(lhs)-1])
			}
			if f.guardObj == nil {
				f.guard = guardErr // stays pending, reported if leaked
			}
		case guardNilResult:
			f.guardObj = f.obj
		}
		// Replace any stale fact for the same identity (reassignment).
		for id, old := range st {
			if old.key == f.key && old.spec != nil && old.spec.what == spec.what {
				delete(st, id)
			}
		}
		st[f.id()] = f
	}

	for i := range pairTable {
		spec := &pairTable[i]
		if methodIs(obj, spec.pkg, spec.recv, spec.method) {
			bind(0, spec, spec.guard)
			return
		}
	}
	// Module constructor that hands back acquired resources.
	if sum := a.summaryOf(obj); sum != nil {
		sig, _ := obj.Type().(*types.Signature)
		for j, specs := range sum.returned {
			guard := guardNone
			if sig != nil && sig.Results().Len() > 1 && isErrorType(sig.Results().At(sig.Results().Len()-1).Type()) {
				guard = guardErr
			}
			for _, spec := range specs {
				ad := a.adapted[spec]
				if ad == nil {
					c := *spec
					c.id = idResult
					c.relByArg = false
					ad = &c
					a.adapted[spec] = ad
				}
				bind(j, ad, guard)
			}
		}
	}
}

// applyReturn transfers returned resources, records constructor
// summaries, and reports what is still held. A resource is transferred
// when any root identifier of a result names it — `return n, nil`
// hands off the latch tracked as "n.f", and `return wrap(f), nil`
// hands off the frame f inside the wrapper.
func (a *pairAnalysis) applyReturn(st pairState, ret *ast.ReturnStmt) {
	for j, res := range ret.Results {
		for _, ident := range a.rootIdents(res) {
			io := identObj(a.p, ident)
			for id, f := range st {
				if (io != nil && f.obj == io) || keyRelated(f.key, ident.Name) {
					if f.spec != nil {
						// The resource rides out in result j (possibly
						// inside a wrapper): a constructor summary.
						present := false
						for _, s := range a.returned[j] {
							if s == f.spec {
								present = true
							}
						}
						if !present {
							a.returned[j] = append(a.returned[j], f.spec)
						}
					}
					delete(st, id)
					a.markTransferredParam(f)
				}
			}
		}
	}
	a.checkExit(st, ret.Pos())
}

// markTransferredParam records that a summary-seeded parameter fact was
// transferred rather than released — handing a parameter to a new owner
// (a struct, a slice, the caller via return) is not a release, but it
// does end the caller's tracking: `retained.push(cur)` moves the
// obligation into the container, whose releaseAll discharges it.
func (a *pairAnalysis) markTransferredParam(f pairFact) {
	if f.spec == nil && f.obj != nil {
		if idx, ok := a.paramObjs[f.obj]; ok {
			a.paramLeaked[idx] = true
			a.paramStored[idx] = true
		}
	}
}

// rootIdents collects the identifiers that can carry a resource out of
// an expression: selector bases, composite-literal elements, and call
// arguments the callee is known (or not known not) to retain — but not
// selector field names, callee names, borrowed arguments of summarized
// local helpers (`return e.writeHeaderField(mt, ...)` does not hand mt
// away), or closure bodies (closures are captures, in applyTransfers).
func (a *pairAnalysis) rootIdents(e ast.Expr) []*ast.Ident {
	var out []*ast.Ident
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if e.Name != "_" && e.Name != "nil" {
				out = append(out, e)
			}
		case *ast.ParenExpr:
			walk(e.X)
		case *ast.SelectorExpr:
			walk(e.X)
		case *ast.StarExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.IndexExpr:
			walk(e.X)
		case *ast.SliceExpr:
			walk(e.X)
		case *ast.CallExpr:
			var sum *pairSummary
			if obj := calleeFunc(a.p, e); obj != nil {
				sum = a.summaryOf(obj)
			}
			for i, arg := range e.Args {
				if sum == nil || sum.stores[i] || sum.releases[i] {
					walk(arg)
				}
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				walk(el)
			}
		}
	}
	walk(e)
	return out
}

// checkExit reports (or, in the summary pass, records) facts still held
// at an exit point.
func (a *pairAnalysis) checkExit(st pairState, pos token.Pos) {
	for _, f := range st {
		if f.deferred {
			continue
		}
		if f.spec == nil {
			if idx, ok := a.paramObjs[f.obj]; ok {
				a.paramLeaked[idx] = true
			}
			continue
		}
		if !a.report {
			continue
		}
		acq := a.p.Fset.Position(f.pos)
		key := fmt.Sprintf("%d|%d|%s", f.pos, pos, f.spec.what)
		if a.reported[key] {
			continue
		}
		a.reported[key] = true
		a.findings = append(a.findings, Finding{
			Analyzer: "pairing",
			Pos:      a.p.Fset.Position(pos),
			Message: fmt.Sprintf("%s: exit path still holds %s %q acquired at line %d; release it on this path or defer the release",
				a.scope.name, f.spec.what, f.key, acq.Line),
		})
	}
}

// refine narrows facts along a conditional edge: `err != nil` kills an
// err-guarded fact on its true edge and discharges the guard on its
// false edge; `f == nil` does the reverse for nil-guarded facts; and an
// err-guard equal to a (necessarily non-nil) sentinel error is a non-nil
// edge like any other.
func (a *pairAnalysis) refine(st pairState, e cfgEdge) pairState {
	obj, isNil, ok := nilGuard(a.p, e)
	if !ok {
		if obj = a.equalsSentinel(e); obj == nil {
			return st
		}
	}
	out := st.clone()
	for id, f := range out {
		switch {
		case isNil && ((f.obj != nil && f.obj == obj) || keyUnder(f.key, obj.Name())):
			// A binding proven nil on this edge cannot hold a resource.
			// This is what connects `var prev *node` set only inside `if
			// prevNo != 0` with the later `if prev != nil { release(prev)
			// }` — on the nil edge the acquire never happened.
			delete(out, id)
		case f.guard == guardNone || f.guardObj != obj:
		case (f.guard == guardErr) == isNil:
			// err == nil / f != nil: definitely acquired.
			delete(out, id)
			f.guard = guardNone
			out[f.id()] = f
		default:
			delete(out, id) // err != nil / f == nil: never acquired
		}
	}
	return out
}

// equalsSentinel parses an edge along which an identifier equals an
// error-typed operand (`err == ErrBusy`, or the false edge of `!=`) and
// returns the identifier's object, nil for any other edge.
func (a *pairAnalysis) equalsSentinel(e cfgEdge) types.Object {
	cond, holds := edgeCond(e)
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) || (bin.Op == token.EQL) != holds {
		return nil
	}
	for _, xy := range [2][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
		if tv, ok := a.p.Info.Types[xy[1]]; ok && tv.Type != nil && isErrorType(tv.Type) {
			if obj := identObj2(a.p, xy[0]); obj != nil {
				return obj
			}
		}
	}
	return nil
}

// ---- shared type helpers ----

// calleeFunc resolves a call to the *types.Func it invokes, if any.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	obj, _ := p.Info.Uses[id].(*types.Func)
	return obj
}

// methodIs reports whether obj is method recv.method of a package whose
// import path ends in pkg. recv "" matches package-level functions.
func methodIs(obj *types.Func, pkg, recv, method string) bool {
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), pkg) || obj.Name() != method {
		return false
	}
	return recvTypeName(obj) == recv
}

// recvTypeName is the name of a method's receiver type (or interface),
// "" for plain functions.
func recvTypeName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// identObj resolves a used identifier to its object.
func identObj(p *Package, ident *ast.Ident) types.Object {
	if o := p.Info.Uses[ident]; o != nil {
		return o
	}
	return p.Info.Defs[ident]
}

// identObj2 resolves an expression to an object when it is a plain
// identifier (not "_"), nil otherwise.
func identObj2(p *Package, e ast.Expr) types.Object {
	ident, ok := e.(*ast.Ident)
	if !ok || ident.Name == "_" || ident.Name == "nil" {
		return nil
	}
	return identObj(p, ident)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
