package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRdma is a minimal stand-in for internal/rdma with the same type and
// method names the analyzers key on.
const fakeRdma = `package rdma

type NodeID string

type Addr struct {
	Node   NodeID
	Region uint32
	Off    uint64
}

type Endpoint struct{}

func (e *Endpoint) Read(a Addr, dst []byte) error                      { return nil }
func (e *Endpoint) Write(a Addr, src []byte) error                     { return nil }
func (e *Endpoint) CAS64(a Addr, old, new uint64) (uint64, bool, error) { return 0, false, nil }
func (e *Endpoint) FetchAdd64(a Addr, d uint64) (uint64, error)        { return 0, nil }
func (e *Endpoint) Load64(a Addr) (uint64, error)                      { return 0, nil }
func (e *Endpoint) Call(t NodeID, m string, b []byte) ([]byte, error)  { return nil, nil }
func (e *Endpoint) CallTimeout(t NodeID, m string, b []byte, d int64) ([]byte, error) {
	return nil, nil
}
func (e *Endpoint) ID() NodeID { return "" }

type Region struct{}

func (r *Region) Store64Local(off, v uint64) error { return nil }
`

// writeModule materializes files (module-relative path -> contents) as a
// throwaway module named polardb and loads it.
func writeModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module polardb\n\ngo 1.22\n"
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// run applies all analyzers to the given patterns.
func run(t *testing.T, mod *Module, patterns ...string) []Finding {
	t.Helper()
	return solve(t, mod, "", patterns...).Findings
}

// runOnly applies a single analyzer by name.
func runOnly(t *testing.T, mod *Module, name string, patterns ...string) []Finding {
	t.Helper()
	return solve(t, mod, name, patterns...).Findings
}

// solve runs the named analyzer (all of them for "") and returns the whole
// result, for tests that also read the lock graph or the cost table.
func solve(t *testing.T, mod *Module, name string, patterns ...string) *Result {
	t.Helper()
	analyzers := Analyzers()
	if name != "" {
		analyzers = nil
		for _, a := range Analyzers() {
			if a.Name() == name {
				analyzers = []Analyzer{a}
			}
		}
		if analyzers == nil {
			t.Fatalf("no analyzer %q", name)
		}
	}
	res, err := Run(mod, patterns, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wantFindings asserts the findings match (analyzer, file suffix, line)
// triples exactly, in order.
func wantFindings(t *testing.T, got []Finding, want ...[3]interface{}) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(want), got)
	}
	for i, w := range want {
		f := got[i]
		analyzer, file, line := w[0].(string), w[1].(string), w[2].(int)
		if f.Analyzer != analyzer || !strings.HasSuffix(f.Pos.Filename, file) || f.Pos.Line != line {
			t.Errorf("finding %d = %s at %s:%d, want %s at %s:%d (%s)",
				i, f.Analyzer, f.Pos.Filename, f.Pos.Line, analyzer, file, line, f.Message)
		}
	}
}

func TestNoSleep(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		// The latency model itself may sleep.
		"internal/rdma/latency.go": `package rdma

import "time"

func simulate() { time.Sleep(time.Microsecond) }
`,
		// Bench measurement windows may sleep.
		"internal/bench/bench.go": `package bench

import "time"

func window() { time.Sleep(time.Millisecond) }
`,
		// Anything else may not.
		"internal/engine/engine.go": `package engine

import "time"

func poll() {
	time.Sleep(time.Millisecond)
}
`,
	})
	wantFindings(t, run(t, mod, "./..."),
		[3]interface{}{"nosleep", "internal/engine/engine.go", 6})
}

func TestNoSleepAllowDirective(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/engine/engine.go": `package engine

import "time"

func pace() {
	//polarvet:allow nosleep demo pacing, not simulated latency
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond) //polarvet:allow nosleep same-line form
}

func unjustified() {
	//polarvet:allow nosleep
	time.Sleep(time.Millisecond)
}
`,
	})
	// The reasonless directive is malformed (reported) and suppresses
	// nothing, so its Sleep is reported too.
	wantFindings(t, run(t, mod, "./..."),
		[3]interface{}{"directive", "internal/engine/engine.go", 12},
		[3]interface{}{"nosleep", "internal/engine/engine.go", 13})
}

func TestLayering(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/cluster/cluster.go": `package cluster

import "polardb/internal/rdma"

var _ rdma.NodeID
`,
		// btree reaching up into cluster inverts the DAG.
		"internal/btree/tree.go": `package btree

import "polardb/internal/cluster"

var _ = cluster.Order
`,
		"internal/cluster/order.go": "package cluster\n\nconst Order = 16\n",
		// A package the table has never heard of.
		"internal/mystery/mystery.go": "package mystery\n",
	})
	wantFindings(t, run(t, mod, "./..."),
		[3]interface{}{"layering", "internal/btree/tree.go", 3},
		[3]interface{}{"layering", "internal/mystery/mystery.go", 1})
}

// TestLayeringStatRow pins the observability row of the table: stat is
// importable from every layer (here the extremes: the rdma leaf and the
// bench top), while stat itself stays a leaf — it may not import even
// types, let alone reach up into a tier.
func TestLayeringStatRow(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/stat/stat.go": "package stat\n\ntype Counter struct{}\n",
		"internal/rdma/rdma.go": `package rdma

import "polardb/internal/stat"

var _ stat.Counter
`,
		"internal/bench/bench.go": `package bench

import "polardb/internal/stat"

var _ stat.Counter
`,
	})
	wantFindings(t, runOnly(t, mod, "layering", "./..."))

	bad := writeModule(t, map[string]string{
		"internal/types/types.go": "package types\n\ntype PageNo uint32\n",
		"internal/stat/stat.go": `package stat

import "polardb/internal/types"

var _ types.PageNo
`,
	})
	wantFindings(t, runOnly(t, bad, "layering", "./..."),
		[3]interface{}{"layering", "internal/stat/stat.go", 3})
}

func TestLayeringCleanAndUnrestrictedRoots(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/cache/cache.go": `package cache

import "polardb/internal/rdma"

var _ rdma.NodeID
`,
		// cmd may import anything.
		"cmd/tool/main.go": `package main

import (
	"polardb/internal/cache"
	"polardb/internal/rdma"
)

func main() { _ = cache.X; var _ rdma.NodeID }
`,
		"internal/cache/x.go": "package cache\n\nvar X = 1\n",
	})
	wantFindings(t, run(t, mod, "./..."))
}

const lockHeldSrc = `package engine

import (
	"sync"

	"polardb/internal/rdma"
)

type node struct {
	mu sync.Mutex
	rw sync.RWMutex
	ep *rdma.Endpoint
}

func (n *node) latchAcrossFabric(a rdma.Addr, buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ep.Read(a, buf) // held: deferred unlock
}

func (n *node) releasedBeforeFabric(a rdma.Addr, buf []byte) error {
	n.mu.Lock()
	n.mu.Unlock()
	return n.ep.Read(a, buf)
}

func (n *node) readLockAcrossCall(b []byte) {
	n.rw.RLock()
	_, _ = n.ep.Call("x", "m", b)
	n.rw.RUnlock()
}

func (n *node) closureIsSeparate(a rdma.Addr, buf []byte) func() {
	n.mu.Lock()
	defer n.mu.Unlock()
	return func() {
		_ = n.ep.Write(a, buf)
	}
}
`

func TestLockHeld(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go":     fakeRdma,
		"internal/engine/engine.go": lockHeldSrc,
	})
	wantFindings(t, runOnly(t, mod, "lockorder", "./internal/engine"),
		[3]interface{}{"lockorder", "internal/engine/engine.go", 18},
		[3]interface{}{"lockorder", "internal/engine/engine.go", 29})
}

func TestLockHeldAllowDirective(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/engine/engine.go": `package engine

import (
	"sync"

	"polardb/internal/rdma"
)

type node struct {
	mu sync.Mutex
	ep *rdma.Endpoint
}

func (n *node) audited(a rdma.Addr, buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	//polarvet:allow lockorder single-writer config path, never contended
	return n.ep.Read(a, buf)
}
`,
	})
	wantFindings(t, runOnly(t, mod, "lockorder", "./internal/engine"))
}

func TestErrDrop(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/engine/engine.go": `package engine

import "polardb/internal/rdma"

func drops(ep *rdma.Endpoint, r *rdma.Region, a rdma.Addr, buf []byte) {
	_ = ep.Write(a, buf)
	ep.Write(a, buf)
	_, _ = ep.Call("x", "m", buf)
	_ = r.Store64Local(0, 1)
	go ep.Write(a, buf)
}

func handles(ep *rdma.Endpoint, a rdma.Addr, buf []byte) error {
	if err := ep.Write(a, buf); err != nil {
		return err
	}
	resp, err := ep.Call("x", "m", buf)
	_ = resp
	return err
}
`,
		// Intra-package calls are the package's own business.
		"internal/rdma/uses.go": `package rdma

func (e *Endpoint) flush(a Addr, b []byte) {
	_ = e.Write(a, b)
}
`,
	})
	// errdrop only: the fixture's bare ep.Call is fabriccost's deadline
	// problem, pinned in its own test.
	wantFindings(t, runOnly(t, mod, "errdrop", "./..."),
		[3]interface{}{"errdrop", "internal/engine/engine.go", 6},
		[3]interface{}{"errdrop", "internal/engine/engine.go", 7},
		[3]interface{}{"errdrop", "internal/engine/engine.go", 8},
		[3]interface{}{"errdrop", "internal/engine/engine.go", 9},
		[3]interface{}{"errdrop", "internal/engine/engine.go", 10})
}

func TestErrDropAllowDirective(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/engine/engine.go": `package engine

import "polardb/internal/rdma"

func bestEffort(ep *rdma.Endpoint, a rdma.Addr, buf []byte) {
	//polarvet:allow errdrop best-effort cache hint; receiver revalidates
	_ = ep.Write(a, buf)
}
`,
	})
	wantFindings(t, run(t, mod, "./..."))
}

// TestRepoIsClean is the gate the tentpole promises: the analyzers run
// clean over the real repository. A deliberate violation anywhere (e.g.
// a stray time.Sleep in internal/engine) fails this test the same way it
// fails `go run ./cmd/polarvet ./...`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis skipped in -short mode")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mod, []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
}
