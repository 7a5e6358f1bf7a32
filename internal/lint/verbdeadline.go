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
func (VerbDeadline) Check(prog *program) []Finding {
	var out []Finding
	for _, f := range prog.funcs {
		watched := false
		for _, suffix := range verbDeadlinePkgs {
			if strings.HasSuffix(f.pkg.Path, suffix) {
				watched = true
			}
		}
		if !watched {
			continue
		}
		boundedCache := map[int]bool{}
		for _, blk := range f.g.blocks {
			for _, cs := range blk.calls {
				if cs.callee == nil {
					continue
				}
				if methodIs(cs.callee, "internal/rdma", "Endpoint", "Call") {
					out = append(out, Finding{
						Analyzer: "verbdeadline",
						Pos:      prog.fset.Position(cs.call.Pos()),
						Message: fmt.Sprintf("%s: Endpoint.Call has no deadline and can wedge forever on a dead handler; use CallTimeout",
							f.name),
					})
					continue
				}
				id := f.scc[blk]
				if !f.cyclic[id] || !prog.fabricWaiting(cs) {
					continue
				}
				bounded, seen := boundedCache[id]
				if !seen {
					bounded = sccBounded(f, id)
					boundedCache[id] = bounded
				}
				if !bounded {
					out = append(out, Finding{
						Analyzer: "verbdeadline",
						Pos:      prog.fset.Position(cs.call.Pos()),
						Message: fmt.Sprintf("%s: fabric-waiting call %s retried on an unbounded loop; bound it with a retry.Backoff window, a counted loop, or a cancellable select",
							f.name, types.ExprString(cs.call.Fun)),
					})
				}
			}
		}
	}
	return out
}

// fabricWaiting reports whether a call waits on the fabric: a verb, a
// remote-tier client method, or a module function that transitively
// issues a verb (in this package or another — the program's cost facts
// answer that, so a cluster loop retrying an exported engine helper is
// recognized).
func (prog *program) fabricWaiting(cs *callSite) bool {
	if cs.verb != "" {
		return true
	}
	if pkg := cs.callee.Pkg(); pkg != nil {
		for suffix, recvs := range fabricClients {
			if strings.HasSuffix(pkg.Path(), suffix) && recvs[recvTypeName(cs.callee)] {
				return true
			}
		}
	}
	for _, t := range cs.targets {
		if prog.fabric.reaches(t) {
			return true
		}
	}
	return false
}

// sccBackoff collects the blocks of f's CFG cycle with the given id and
// reports whether the cycle advances a retry.Backoff, which bounds it by
// the backoff's window.
func sccBackoff(f *funcInfo, id int) (scc map[*cfgBlock]bool, backoff bool) {
	scc = map[*cfgBlock]bool{}
	for _, blk := range f.g.blocks {
		if f.scc[blk] != id {
			continue
		}
		scc[blk] = true
		for _, cs := range blk.calls {
			if obj := cs.callee; obj != nil && obj.Pkg() != nil &&
				strings.HasSuffix(obj.Pkg().Path(), "internal/retry") && recvTypeName(obj) == "Backoff" {
				backoff = true
			}
		}
	}
	return scc, backoff
}

// sccBounded decides whether f's cycle with the given id terminates or
// is cancellable.
func sccBounded(f *funcInfo, id int) bool {
	g := f.g
	scc, backoff := sccBackoff(f, id)
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
