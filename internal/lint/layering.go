package lint

import (
	"fmt"
	"sort"
	"strings"
)

// Layering enforces the package DAG of the disaggregated architecture.
// The table below is the single source of truth for which internal
// packages may import which: leaves (types, wire, stat, retry, lint)
// import no siblings; rdma sits on stat (endpoints record verb metrics);
// the memory/storage/txn tiers sit on the fabric; engine composes the
// tiers; cluster composes engines; workload and bench sit on top.
// Crucially, nothing below cluster may reach up into cluster or engine —
// a b-tree or remote-memory client that could call the engine would let
// state flow around the fabric instead of through it.
//
// stat is deliberately importable from every layer: observability must
// thread through each cross-node path without creating edges between
// the layers themselves (stat itself imports nothing).
//
// cmd/, pkg/ and examples/ are composition roots and are unrestricted.
// An internal package missing from the table is itself a finding: new
// packages must declare their layer here.
type Layering struct{}

// allowedImports maps each internal package (short name) to the internal
// packages it may import.
var allowedImports = map[string][]string{
	"types":        {},
	"wire":         {},
	"stat":         {},
	"rdma":         {"stat"},
	"retry":        {},
	"lint":         {},
	"cache":        {"rdma", "stat", "types"},
	"btree":        {"cache", "stat", "types"},
	"plog":         {"stat", "types", "wire"},
	"parallelraft": {"rdma", "retry", "stat", "types", "wire"},
	"polarfs":      {"parallelraft", "plog", "rdma", "retry", "stat", "types", "wire"},
	"rmem":         {"rdma", "retry", "stat", "types", "wire"},
	"txn":          {"rdma", "stat", "types", "wire"},
	"engine":       {"btree", "cache", "plog", "polarfs", "rdma", "retry", "rmem", "stat", "txn", "types", "wire"},
	"cluster":      {"btree", "engine", "parallelraft", "plog", "polarfs", "rdma", "retry", "rmem", "stat", "txn", "types", "wire"},
	"workload":     {"cluster", "engine", "rdma", "retry", "stat", "types"},
	"bench":        {"btree", "cluster", "engine", "rdma", "retry", "stat", "txn", "types", "wire", "workload"},
}

// Name implements Analyzer.
func (Layering) Name() string { return "layering" }

// Check implements Analyzer.
func (Layering) Check(prog *program) []Finding { return prog.eachPackage(layering) }

func layering(p *Package) []Finding {
	self, ok := internalName(p.Path)
	if !ok {
		return nil // cmd/pkg/examples/root: unrestricted
	}
	allowed, known := allowedImports[self]
	if !known {
		return []Finding{{
			Analyzer: "layering",
			Pos:      p.Fset.Position(p.Files[0].Pos()),
			Message:  fmt.Sprintf("internal package %q is not in the layering table; declare its allowed imports in internal/lint/layering.go", self),
		}}
	}
	allowSet := map[string]bool{}
	for _, a := range allowed {
		allowSet[a] = true
	}
	var out []Finding
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			dep, ok := internalName(path)
			if !ok || allowSet[dep] {
				continue
			}
			msg := fmt.Sprintf("layering violation: internal/%s may not import internal/%s (allowed: %s)",
				self, dep, strings.Join(sortedCopy(allowed), ", "))
			out = append(out, Finding{Analyzer: "layering", Pos: p.Fset.Position(imp.Pos()), Message: msg})
		}
	}
	return out
}

// internalName extracts the first path element under ".../internal/",
// reporting ok=false for paths outside the internal tree.
func internalName(path string) (string, bool) {
	idx := strings.Index(path, "internal/")
	if idx == -1 {
		return "", false
	}
	rest := path[idx+len("internal/"):]
	if i := strings.Index(rest, "/"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

func sortedCopy(xs []string) []string {
	ys := append([]string(nil), xs...)
	sort.Strings(ys)
	return ys
}
