package lint

// callgraph.go links per-package views into a whole-module call graph.
// Nodes are the module's declared functions and methods (those with
// bodies); edges are resolved at each call site three ways:
//
//   - direct calls and qualified calls (pkg.F, recv.M) resolve through
//     go/types to the single declared callee;
//   - method values captured into locals (h := x.M; ...; h()) resolve
//     through a per-function binding pass to the bound method;
//   - interface method calls resolve against every concrete named type
//     in the module whose method set implements the interface — the
//     static over-approximation of dynamic dispatch.
//
// Function literals are deliberately not call targets: a literal is
// analyzed as its own scope (an immediately invoked one is linked from its
// call site, see callSite.lit), and a call through a function-typed value
// that is not a recorded method value stays unresolved (the analyses treat
// unresolved callees as having no effects, keeping the propagation an
// under-approximation over unknown code rather than an explosion over all
// of it).

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// moduleIndex is the module-wide resolution context: every analyzed
// package, every function body, and the concrete named types used to
// resolve interface dispatch.
type moduleIndex struct {
	pkgs  []*Package                // deterministic (import-path) order
	funcs []*funcInfo               // every body: per package, each declaration then its literals
	decls map[*types.Func]*funcInfo // declared functions with bodies
	lits  map[*ast.FuncLit]*funcInfo
	named []*types.Named // concrete (non-interface) module named types
}

// buildModuleIndex indexes the given packages plus every module package
// they pulled in as dependencies.
func buildModuleIndex(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{decls: map[*types.Func]*funcInfo{}, lits: map[*ast.FuncLit]*funcInfo{}}
	if len(pkgs) == 0 {
		return idx
	}
	idx.pkgs = pkgs[0].Mod.Loaded()
	for _, p := range idx.pkgs {
		for _, f := range funcScopes(p) {
			idx.funcs = append(idx.funcs, f)
			if f.lit != nil {
				idx.lits[f.lit] = f
			} else if f.fn != nil {
				idx.decls[f.fn] = f
			}
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			idx.named = append(idx.named, named)
		}
	}
	return idx
}

// methodValue is a method captured into a local variable (h := x.M):
// the bound method and the receiver expression it was taken from.
type methodValue struct {
	fn   *types.Func
	recv ast.Expr
}

// methodBindings scans one function body for method values captured into
// local variables (h := x.M) and returns local object -> bound method.
// The pass is flow-insensitive: a rebinding to a non-method clears the
// entry, and the last textual binding wins — which matches every use in
// the tree (capture once, call later).
func methodBindings(p *Package, body *ast.BlockStmt) map[types.Object]methodValue {
	out := map[types.Object]methodValue{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(p, id)
			if obj == nil {
				continue
			}
			if sel, ok := as.Rhs[i].(*ast.SelectorExpr); ok {
				if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						out[obj] = methodValue{fn: fn, recv: sel.X}
						continue
					}
				}
			}
			delete(out, obj)
		}
		return true
	})
	return out
}

// resolveCall returns the module-declared functions a call may invoke,
// in deterministic order. bindings may be nil.
func (idx *moduleIndex) resolveCall(p *Package, call *ast.CallExpr, bindings map[types.Object]methodValue) []*types.Func {
	obj := calleeFunc(p, call)
	if obj == nil {
		// A call through a plain identifier may be a captured method
		// value.
		if id, ok := call.Fun.(*ast.Ident); ok && bindings != nil {
			if v := identObj(p, id); v != nil {
				if mv, ok := bindings[v]; ok {
					obj = mv.fn
				}
			}
		}
		if obj == nil {
			return nil
		}
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return idx.resolveInterfaceCall(obj)
	}
	if idx.decls[obj] != nil {
		return []*types.Func{obj}
	}
	return nil
}

// resolveInterfaceCall lists the declared concrete methods that can sit
// behind an interface method.
func (idx *moduleIndex) resolveInterfaceCall(m *types.Func) []*types.Func {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	seen := map[*types.Func]bool{}
	for _, named := range idx.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		fobj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
		fn, ok := fobj.(*types.Func)
		if !ok || seen[fn] || idx.decls[fn] == nil {
			continue
		}
		seen[fn] = true
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// shortPkg is the last path element of a package's import path
// ("polardb/internal/engine" -> "engine").
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// exemptFromLocking reports packages outside the lock-order universe:
// internal/rdma implements the fabric the invariants protect (its
// bookkeeping locks are the latency model's own), and internal/lint is
// the analyzer itself.
func exemptFromLocking(path string) bool {
	return strings.HasSuffix(path, "internal/rdma") || strings.HasSuffix(path, "internal/lint")
}
