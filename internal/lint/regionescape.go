package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RegionEscape is the taint analysis that keeps raw registered-memory
// bytes inside the package that obtained them. The disaggregation
// claim rests on every cross-node byte flowing through a fabric verb;
// a []byte aliasing an rdma.Region's backing array that escapes — via
// a return from an exported function, a struct field, a channel send,
// or a goroutine closure — is shared memory smuggled past the latency
// and coherence model (and past the region lock, so it races with
// remote writes).
//
// Taint sources are the aliasing accessors by convention: any
// rdma.Region method whose name starts with "Bytes", and the []byte
// parameter of a callback passed to a Region "WithBytes*" method
// (e.g. WithBytesLocal, which exposes the live backing array under the
// region read-lock). Copying accessors (ReadLocal and friends) return
// fresh buffers and are not sources. Taint is tracked flow-sensitively
// per function — reassigning a variable to a fresh buffer clears it —
// and one level across package-local calls: an unexported function
// returning tainted bytes taints its call sites, while an *exported*
// function returning them is itself an escape. internal/rdma is exempt
// (it owns the arrays).
type RegionEscape struct{}

// Name implements Analyzer.
func (RegionEscape) Name() string { return "regionescape" }

// Check implements Analyzer.
func (RegionEscape) Check(prog *program) []Finding {
	// Func literals passed to Region WithBytes* methods: their []byte
	// parameters alias region memory.
	callbacks := map[*ast.FuncLit]bool{}
	for _, f := range prog.funcs {
		for _, cs := range f.calls {
			if cs.callee != nil && isRegionMethod(cs.callee, "WithBytes") {
				for _, arg := range cs.call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						callbacks[lit] = true
					}
				}
			}
		}
	}
	tainted := map[*funcInfo]bool{}
	analyze := func(f *funcInfo, report bool) *regionAnalysis {
		a := &regionAnalysis{prog: prog, p: f.pkg, scope: f, taintedFns: tainted, callbacks: callbacks, report: report}
		a.run()
		return a
	}
	// Unexported functions may hand aliases around inside their package;
	// which of them return one is the interprocedural fact.
	summarize(prog.funcs, tainted, func(f *funcInfo) (bool, bool) {
		if f.decl == nil || ast.IsExported(f.name) || isFabricPkg(f.pkg) || tainted[f] {
			return false, false
		}
		rt := analyze(f, false).returnsTaint
		return rt, rt
	})
	var out []Finding
	for _, f := range prog.funcs {
		if !isFabricPkg(f.pkg) {
			out = append(out, analyze(f, true).findings...)
		}
	}
	return out
}

// isRegionMethod reports an rdma.Region method whose name starts with
// prefix.
func isRegionMethod(obj *types.Func, prefix string) bool {
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/rdma") &&
		recvTypeName(obj) == "Region" && strings.HasPrefix(obj.Name(), prefix)
}

// regionTaint is the flow state: the set of locally tainted objects.
type regionTaint map[types.Object]bool

func (s regionTaint) clone() regionTaint {
	out := make(regionTaint, len(s))
	for o := range s {
		out[o] = true
	}
	return out
}

func (s regionTaint) join(from regionTaint) bool {
	changed := false
	for o := range from {
		if !s[o] {
			s[o] = true
			changed = true
		}
	}
	return changed
}

type regionAnalysis struct {
	prog       *program
	p          *Package
	scope      *funcInfo
	taintedFns map[*funcInfo]bool
	callbacks  map[*ast.FuncLit]bool
	report     bool

	findings     []Finding
	reported     map[token.Pos]bool
	returnsTaint bool
}

func (a *regionAnalysis) run() {
	a.reported = map[token.Pos]bool{}
	entry := regionTaint{}
	if a.scope.lit != nil && a.callbacks[a.scope.lit] {
		for _, field := range a.scope.typ.Params.List {
			if !isByteSlice(a.p, field.Type) {
				continue
			}
			for _, name := range field.Names {
				if obj := a.p.Info.Defs[name]; obj != nil {
					entry[obj] = true
				}
			}
		}
	}
	forward(a.scope.g, entry, func(blk *cfgBlock, st regionTaint) {
		for _, n := range blk.nodes {
			a.applyNode(st, n)
		}
	}, nil)
}

func (a *regionAnalysis) applyNode(st regionTaint, n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		a.applyAssign(st, s)
	case *ast.SendStmt:
		if a.exprTainted(st, s.Value) {
			a.escape(s.Pos(), "sent on a channel")
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if a.exprTainted(st, res) {
				a.returnEscape(s.Pos())
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) && a.exprTainted(st, vs.Values[i]) {
							if obj := a.p.Info.Defs[name]; obj != nil {
								st[obj] = true
							}
						}
					}
				}
			}
		}
	}
	// Escapes that can sit anywhere in a statement: composite literals
	// and closures capturing tainted bytes.
	inspectSkipFuncLit(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.CompositeLit:
			for _, el := range c.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if a.exprTainted(st, el) {
					a.escape(c.Pos(), "stored in a composite literal")
				}
			}
		case *ast.FuncLit:
			ast.Inspect(c.Body, func(inner ast.Node) bool {
				if ident, ok := inner.(*ast.Ident); ok {
					if o := a.p.Info.Uses[ident]; o != nil && st[o] {
						a.escape(c.Pos(), "captured by a function literal (it may run after the region lock is released)")
						return false
					}
				}
				return true
			})
		}
		return true
	})
}

func (a *regionAnalysis) applyAssign(st regionTaint, s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		var rhsTainted bool
		if len(s.Rhs) == len(s.Lhs) {
			rhsTainted = a.exprTainted(st, s.Rhs[i])
		} else if len(s.Rhs) == 1 {
			// Tuple assignment from one call: taint the byte-slice
			// results if the call is tainted.
			rhsTainted = a.exprTainted(st, s.Rhs[0]) && isByteSlice(a.p, lhs)
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			obj := identObj(a.p, l)
			if obj == nil {
				continue
			}
			if rhsTainted && a.outsideScope(obj) {
				a.escape(s.Pos(), fmt.Sprintf("assigned to %s declared outside this function", l.Name))
				continue
			}
			if rhsTainted {
				st[obj] = true
			} else {
				delete(st, obj) // reassigned to a fresh buffer
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if rhsTainted {
				a.escape(s.Pos(), fmt.Sprintf("stored into %s", types.ExprString(lhs)))
			}
			_ = l
		}
	}
}

// outsideScope reports whether obj is declared outside the analyzed
// function (an enclosing function's local, or a package-level var).
func (a *regionAnalysis) outsideScope(obj types.Object) bool {
	return obj.Pos() < a.scope.typ.Pos() || obj.Pos() > a.scope.body.End()
}

// exprTainted reports whether e evaluates to region-aliasing bytes.
func (a *regionAnalysis) exprTainted(st regionTaint, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := identObj(a.p, e)
		return obj != nil && st[obj]
	case *ast.ParenExpr:
		return a.exprTainted(st, e.X)
	case *ast.SliceExpr:
		return a.exprTainted(st, e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && a.exprTainted(st, e.X)
	case *ast.CallExpr:
		obj := calleeFunc(a.p, e)
		if obj == nil {
			return false
		}
		if isRegionMethod(obj, "Bytes") {
			return true
		}
		return obj.Pkg() == a.p.Pkg && a.taintedFns[a.prog.decls[obj]]
	}
	return false
}

func (a *regionAnalysis) returnEscape(pos token.Pos) {
	// Unexported functions may pass aliases around inside the package;
	// the summary pass propagates that to their callers. Exported
	// functions returning an alias leak it across the boundary.
	if a.scope.decl != nil && !ast.IsExported(a.scope.decl.Name.Name) {
		a.returnsTaint = true
		return
	}
	if a.scope.lit != nil {
		// A literal's return value stays with its (same-package)
		// caller; the WithBytes callbacks return error anyway.
		return
	}
	a.escape(pos, "returned from an exported function")
}

func (a *regionAnalysis) escape(pos token.Pos, how string) {
	if !a.report || a.reported[pos] {
		return
	}
	a.reported[pos] = true
	a.findings = append(a.findings, Finding{
		Analyzer: "regionescape",
		Pos:      a.p.Fset.Position(pos),
		Message: fmt.Sprintf("%s: registered-region byte alias %s; raw fabric memory must not leave the accessor scope — copy it instead",
			a.scope.name, how),
	})
}

// isByteSlice reports whether the expression's type is []byte.
func isByteSlice(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}
