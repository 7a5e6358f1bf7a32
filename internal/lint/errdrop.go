package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags statements that discard the error result of a call into
// internal/rdma, internal/polarfs, internal/plog, internal/rmem or
// internal/parallelraft — the packages whose errors encode simulated
// infrastructure failures (node unreachable, quorum lost, torn log, latch
// owner dead). Dropping one silently converts an injected fault into
// corruption, which is exactly what the recovery tests are supposed to
// observe. A discard is a bare expression statement, an assignment of the
// error position to _, or a go/defer of such a call. Intra-package calls
// are exempt (the package owning the error decides locally);
// cross-package callers must handle or annotate.
type ErrDrop struct{}

// errSourcePkgs are the suffixes of packages whose dropped errors are
// reported.
var errSourcePkgs = []string{
	"internal/rdma", "internal/polarfs", "internal/plog",
	"internal/rmem", "internal/parallelraft",
}

// Name implements Analyzer.
func (ErrDrop) Name() string { return "errdrop" }

// Check implements Analyzer.
func (ErrDrop) Check(prog *program) []Finding { return prog.eachPackage(errDrop) }

func errDrop(p *Package) []Finding {
	var out []Finding
	report := func(call *ast.CallExpr, how string) {
		if f, ok := droppedErrCall(p, call); ok {
			f.Message += how
			out = append(out, f)
		}
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					report(call, " (result ignored)")
				}
			case *ast.GoStmt:
				report(n.Call, " (go statement ignores results)")
			case *ast.DeferStmt:
				report(n.Call, " (defer ignores results)")
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := n.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				f, ok := droppedErrCall(p, call)
				if !ok {
					return true
				}
				// The error is the last result; it is dropped when the
				// last LHS (or the only LHS of a single-result call) is _.
				last := n.Lhs[len(n.Lhs)-1]
				if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
					f.Message += " (error assigned to _)"
					out = append(out, f)
				}
			}
			return true
		})
	}
	return out
}

// droppedErrCall reports whether call targets an error-returning function
// of one of the watched packages (from a different package), returning a
// template finding.
func droppedErrCall(p *Package, call *ast.CallExpr) (Finding, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return Finding{}, false
	}
	obj, ok := p.Info.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() == p.Path {
		return Finding{}, false
	}
	watched := false
	for _, suffix := range errSourcePkgs {
		if strings.HasSuffix(obj.Pkg().Path(), suffix) {
			watched = true
			break
		}
	}
	if !watched {
		return Finding{}, false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return Finding{}, false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return Finding{}, false
	}
	short := obj.Pkg().Path()
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	return Finding{
		Analyzer: "errdrop",
		Pos:      p.Fset.Position(call.Pos()),
		Message:  fmt.Sprintf("discarded error from %s.%s", short, obj.Name()),
	}, true
}
