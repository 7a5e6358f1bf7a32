package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoSleep forbids time.Sleep outside the fabric latency model. Every
// simulated delay must go through internal/rdma's latency configuration
// so that measured results reflect the modelled hierarchy; an ad-hoc
// sleep is either a hidden latency model (wrong place) or a polling loop
// (use internal/retry, which carries the one audited sleep).
//
// Exempt: internal/rdma/latency.go (the latency model itself),
// internal/bench (measurement windows are real wall-clock time), and
// _test.go files (not loaded at all).
type NoSleep struct{}

// Name implements Analyzer.
func (NoSleep) Name() string { return "nosleep" }

// Check implements Analyzer.
func (NoSleep) Check(prog *program) []Finding { return prog.eachPackage(noSleep) }

func noSleep(p *Package) []Finding {
	if p.Path == "polardb/internal/bench" || strings.HasSuffix(p.Path, "/internal/bench") {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		pos := p.Fset.Position(file.Pos())
		if strings.HasSuffix(pos.Filename, "internal/rdma/latency.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil {
				return true
			}
			if obj.Pkg().Path() == "time" && obj.Name() == "Sleep" {
				out = append(out, Finding{
					Analyzer: "nosleep",
					Pos:      p.Fset.Position(call.Pos()),
					Message:  "time.Sleep outside the latency model; simulate delay via internal/rdma or poll via internal/retry",
				})
			}
			return true
		})
	}
	return out
}
