package polardb_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"polardb/internal/lint"
	"polardb/pkg/polar"
)

// metricName matches the repo's metric naming scheme: at least three
// lowercase dot-separated segments (rdma.read.ops, txn.cts.lookup.ops).
// Filenames and package paths mentioned in prose have at most one dot,
// so backticked code spans in the Observability section that match this
// pattern are exactly the documented metric names.
var metricName = regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+){2,})`")

// TestObservabilityDocDrift pins DESIGN.md's "Observability" table to
// the metrics the code actually registers: launch a full deployment
// (RW + RO + memory + storage + proxy + CM, so every component
// constructs its handles), take the union of registered names across
// nodes, and require it to equal the set documented in DESIGN.md. A
// metric added in code must be documented; a documented metric must
// still exist.
func TestObservabilityDocDrift(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	begin := strings.Index(text, "## Observability")
	if begin < 0 {
		t.Fatal("DESIGN.md has no \"## Observability\" section")
	}
	end := strings.Index(text[begin+1:], "\n## ")
	if end < 0 {
		end = len(text)
	} else {
		end += begin + 1
	}
	section := text[begin:end]

	documented := map[string]bool{}
	for _, m := range metricName.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no metric names found in DESIGN.md's Observability section")
	}

	db, err := polar.Open(polar.Options{
		ReadReplicas:    1,
		MemorySlabs:     2,
		LocalCachePages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Handles are registered eagerly at construction, so no traffic is
	// needed for the full inventory to be visible.
	registered := db.Metrics().Names()
	if len(registered) == 0 {
		t.Fatal("deployment registered no metrics")
	}

	regSet := map[string]bool{}
	for _, n := range registered {
		regSet[n] = true
		if !documented[n] {
			t.Errorf("metric %q is registered but missing from DESIGN.md's Observability table", n)
		}
	}
	var stale []string
	for n := range documented {
		if !regSet[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(stale)
	for _, n := range stale {
		t.Errorf("DESIGN.md's Observability table lists %q, which no component registers", n)
	}
}

// lintResult loads and solves the module once for both lint-backed tests
// below; neither needs an analyzer's findings, only the solved program's
// lock graph and cost table.
var lintResult = sync.OnceValues(func() (*lint.Result, error) {
	mod, err := lint.LoadModule(".")
	if err != nil {
		return nil, err
	}
	return lint.Run(mod, []string{"./..."}, nil)
})

// lockClassRow matches one row of DESIGN.md's lock-class table: the
// backticked class name and the fabric-tolerant cell.
var lockClassRow = regexp.MustCompile("(?m)^\\| `([^`]+)` \\| ([^|]*)\\|")

// TestLockClassesDocDrift pins DESIGN.md's "Lock classes and global
// acquisition order" table to the lockorder analyzer: the documented
// class set must equal the classes discovered from the module, and the
// ✓ (fabric-tolerant) markers must equal the analyzer's fabricTolerant
// table. A new mutex field must be documented (and argued tolerant or
// not); a class removed from the code must leave the table.
func TestLockClassesDocDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis skipped in -short mode")
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	begin := strings.Index(text, "<!-- lockclasses:begin -->")
	end := strings.Index(text, "<!-- lockclasses:end -->")
	if begin < 0 || end < begin {
		t.Fatal("DESIGN.md has no <!-- lockclasses:begin/end --> table")
	}
	section := text[begin:end]

	documented := map[string]bool{} // class -> fabric-tolerant
	for _, m := range lockClassRow.FindAllStringSubmatch(section, -1) {
		if m[1] == "class" {
			continue // header row
		}
		documented[m[1]] = strings.Contains(m[2], "✓")
	}
	if len(documented) == 0 {
		t.Fatal("no lock classes found in DESIGN.md's table")
	}

	res, err := lintResult()
	if err != nil {
		t.Fatal(err)
	}
	g := res.LockGraph()
	known := map[string]bool{}
	for _, c := range g.Classes {
		known[c] = true
		tol, ok := documented[c]
		if !ok {
			t.Errorf("lock class %q exists in the module but is missing from DESIGN.md's table", c)
			continue
		}
		if _, isTol := g.FabricTolerant[c]; isTol != tol {
			t.Errorf("lock class %q: DESIGN.md marks fabric-tolerant=%v, analyzer says %v", c, tol, isTol)
		}
	}
	var stale []string
	for c := range documented {
		if !known[c] {
			stale = append(stale, c)
		}
	}
	sort.Strings(stale)
	for _, c := range stale {
		t.Errorf("DESIGN.md's lock-class table lists %q, which the analyzer no longer discovers", c)
	}
}

// fabricBudgetRow matches one row of DESIGN.md's fabric-budget table:
// the backticked function name and the backticked budget level.
var fabricBudgetRow = regexp.MustCompile("(?m)^\\| `([^`]+)` \\| `([^`]+)` \\|")

// TestFabricBudgetsDocDrift pins DESIGN.md's "Declared fabric budgets"
// table to the fabriccost analyzer: the documented (function, budget)
// pairs must equal the //polarvet:fabric directives discovered in the
// module. A budget added or retuned in code must be reflected here; a
// removed directive must leave the table.
func TestFabricBudgetsDocDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis skipped in -short mode")
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	begin := strings.Index(text, "<!-- fabricbudgets:begin -->")
	end := strings.Index(text, "<!-- fabricbudgets:end -->")
	if begin < 0 || end < begin {
		t.Fatal("DESIGN.md has no <!-- fabricbudgets:begin/end --> table")
	}
	section := text[begin:end]

	documented := map[string]string{} // function -> budget level
	for _, m := range fabricBudgetRow.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = m[2]
	}
	if len(documented) == 0 {
		t.Fatal("no fabric budgets found in DESIGN.md's table")
	}

	res, err := lintResult()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, f := range res.FabricReport() {
		if f.Budget != "" {
			declared[f.Function] = f.Budget
		}
	}
	for fn, level := range declared {
		doc, ok := documented[fn]
		if !ok {
			t.Errorf("%s declares //polarvet:fabric %s but is missing from DESIGN.md's fabric-budget table", fn, level)
			continue
		}
		if doc != level {
			t.Errorf("%s: DESIGN.md documents budget %s, code declares %s", fn, doc, level)
		}
	}
	var stale []string
	for fn := range documented {
		if _, ok := declared[fn]; !ok {
			stale = append(stale, fn)
		}
	}
	sort.Strings(stale)
	for _, fn := range stale {
		t.Errorf("DESIGN.md's fabric-budget table lists %q, which declares no //polarvet:fabric directive", fn)
	}
}
