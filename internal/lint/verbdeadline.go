package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// VerbDeadline proves that the engine and cluster layers can never
// wedge forever on a dead peer. Two rules:
//
//  1. A bare rdma.Endpoint.Call has no deadline: a wedged handler
//     blocks the caller until process exit. Engine/cluster code must
//     use CallTimeout (the fabric abandons the handler at the
//     deadline) — every bare Call is reported.
//
//  2. A fabric-waiting call (an Endpoint verb, a remote-tier client
//     method — rmem.Pool / rmem.PLManager / polarfs.Client /
//     txn.Client — or any module function that transitively issues
//     one, in this package or another) sitting on a CFG cycle is an
//     unbounded retry unless
//     the cycle itself is bounded: it advances a retry.Backoff (whose
//     window expires), it can be cancelled through a select clause
//     that leaves the loop (daemon shutdown channels), or every loop
//     forming the cycle is a counted `for init; cond; post` / `range`
//     loop. Data-dependent spins (`for pg != 0 { ...verb... }`) are
//     reported; if the bound really is structural (a page chain
//     walked under an exclusive latch), say so in a //polarvet:allow
//     reason.
//
// Individual one-sided verbs (Read/Write/CAS64/...) fail fast on dead
// nodes, so a straight-line verb needs no deadline; only retry cycles
// and bare Calls can wedge.
type VerbDeadline struct{}

// Name implements Analyzer.
func (VerbDeadline) Name() string { return "verbdeadline" }

// verbDeadlinePkgs are the layers that must stay responsive during
// node failure (§5: an RO promotion cannot wait on the dead RW).
var verbDeadlinePkgs = []string{"internal/engine", "internal/cluster"}

// fabricClients are remote-tier client types whose methods wait on the
// fabric (possibly several verbs deep).
var fabricClients = map[string]map[string]bool{
	"internal/rmem":    {"Pool": true, "PLManager": true},
	"internal/polarfs": {"Client": true},
	"internal/txn":     {"Client": true},
}

// Check implements Analyzer.
func (VerbDeadline) Check(p *Package) []Finding {
	watched := false
	for _, suffix := range verbDeadlinePkgs {
		if strings.HasSuffix(p.Path, suffix) {
			watched = true
		}
	}
	if !watched {
		return nil
	}

	ensureBlockingFns(p)
	isBlocking := func(call *ast.CallExpr) bool {
		obj := calleeFunc(p, call)
		if obj == nil {
			return false
		}
		if isFabricVerb(obj) {
			return true
		}
		if obj.Pkg() != nil {
			for pkg, recvs := range fabricClients {
				if strings.HasSuffix(obj.Pkg().Path(), pkg) && recvs[recvTypeName(obj)] {
					return true
				}
			}
		}
		return p.Mod.blockingFns[obj]
	}

	var out []Finding
	for _, sc := range funcScopes(p) {
		g := buildCFG(sc.body)
		ids, cyclic := g.sccMap()
		boundedCache := map[int]bool{}
		for _, blk := range g.blocks {
			for _, n := range blk.nodes {
				inspectSkipFuncLit(n, func(c ast.Node) bool {
					call, ok := c.(*ast.CallExpr)
					if !ok {
						return true
					}
					obj := calleeFunc(p, call)
					if obj == nil {
						return true
					}
					if methodIs(obj, "internal/rdma", "Endpoint", "Call") {
						out = append(out, Finding{
							Analyzer: "verbdeadline",
							Pos:      p.Fset.Position(call.Pos()),
							Message: fmt.Sprintf("%s: Endpoint.Call has no deadline and can wedge forever on a dead handler; use CallTimeout",
								sc.name),
						})
						return true
					}
					if !isBlocking(call) {
						return true
					}
					id := ids[blk]
					if !cyclic[id] {
						return true
					}
					bounded, seen := boundedCache[id]
					if !seen {
						bounded = sccBounded(p, g, ids, id)
						boundedCache[id] = bounded
					}
					if !bounded {
						out = append(out, Finding{
							Analyzer: "verbdeadline",
							Pos:      p.Fset.Position(call.Pos()),
							Message: fmt.Sprintf("%s: fabric-waiting call %s retried on an unbounded loop; bound it with a retry.Backoff window, a counted loop, or a cancellable select",
								sc.name, callName(call)),
						})
					}
					return true
				})
			}
		}
	}
	return out
}

// ensureBlockingFns computes, once per package, which of p's functions
// (and, recursively, its module dependencies') transitively issue a
// fabric verb or remote-tier client call on some path, into the
// module-wide map — so a cluster loop retrying an exported engine
// helper is recognized as fabric-waiting. rdma is skipped: its methods
// are the verbs themselves, matched by isFabricVerb.
func ensureBlockingFns(p *Package) {
	m := p.Mod
	if m.blockingDone[p.Path] {
		return
	}
	m.blockingDone[p.Path] = true
	for _, imp := range p.Pkg.Imports() {
		path := imp.Path()
		if path != m.Path && !strings.HasPrefix(path, m.Path+"/") {
			continue
		}
		if dp, err := m.Load(path); err == nil {
			ensureBlockingFns(dp)
		}
	}
	if strings.HasSuffix(p.Path, "internal/rdma") {
		return
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fobj, fd := range decls {
			if m.blockingFns[fobj] {
				continue
			}
			hit := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if hit {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeFunc(p, call)
				if obj == nil {
					return true
				}
				if isFabricVerb(obj) || m.blockingFns[obj] {
					hit = true
					return false
				}
				if obj.Pkg() != nil {
					for pkg, recvs := range fabricClients {
						if strings.HasSuffix(obj.Pkg().Path(), pkg) && recvs[recvTypeName(obj)] {
							hit = true
							return false
						}
					}
				}
				return true
			})
			if hit {
				m.blockingFns[fobj] = true
				changed = true
			}
		}
	}
}

// sccBackoff collects the blocks of the CFG cycle with the given id and
// reports whether the cycle advances a retry.Backoff, which bounds it by
// the backoff's window.
func sccBackoff(p *Package, g *funcCFG, ids map[*cfgBlock]int, id int) (scc map[*cfgBlock]bool, backoff bool) {
	scc = map[*cfgBlock]bool{}
	for _, blk := range g.blocks {
		if ids[blk] == id {
			scc[blk] = true
		}
	}
	for blk := range scc {
		for _, n := range blk.nodes {
			inspectSkipFuncLit(n, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					if obj := calleeFunc(p, call); obj != nil && obj.Pkg() != nil &&
						strings.HasSuffix(obj.Pkg().Path(), "internal/retry") && recvTypeName(obj) == "Backoff" {
						backoff = true
					}
				}
				return !backoff
			})
			if backoff {
				return scc, true
			}
		}
	}
	return scc, false
}

// sccBounded decides whether the cycle with the given id terminates or
// is cancellable.
func sccBounded(p *Package, g *funcCFG, ids map[*cfgBlock]int, id int) bool {
	scc, backoff := sccBackoff(p, g, ids, id)
	if backoff {
		return true
	}

	// A select on the cycle with a clause that escapes it (shutdown
	// channel, context cancellation) makes the loop cancellable.
	for _, head := range g.selects {
		if !scc[head] {
			continue
		}
		for _, e := range head.succs {
			if !scc[e.to] && reachesAvoiding(e.to, g.exit, scc) {
				return true
			}
		}
	}

	// If every loop forming the cycle is a counted or range loop, the
	// iteration space is finite.
	counted, loops := 0, 0
	for stmt, head := range g.loopHeads {
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
		}
	}
	return loops > 0 && counted == loops
}

// callName renders the callee of a call for messages.
func callName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
