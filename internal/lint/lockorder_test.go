package lint

import (
	"go/ast"
	"strings"
	"testing"
	"time"
)

// TestLockOrderCycle: two functions acquiring the same pair of mutexes in
// opposite orders is the textbook deadlock; the finding lands on the
// witness of the closing edge (the later second acquisition).
func TestLockOrderCycle(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"locks/locks.go": `package locks

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func AB(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func BA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`,
	})
	got := runOnly(t, mod, "lockorder", "./...")
	wantFindings(t, got,
		[3]interface{}{"lockorder", "locks/locks.go", 18})
	if !strings.Contains(got[0].Message, "lock-order cycle") {
		t.Errorf("message %q does not describe a cycle", got[0].Message)
	}
}

// TestLockOrderCycleAllowDirective: the same cycle is suppressed by an
// allow directive at the closing edge's witness.
func TestLockOrderCycleAllowDirective(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"locks/locks.go": `package locks

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func AB(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func BA(a *A, b *B) {
	b.mu.Lock()
	//polarvet:allow lockorder test fixture: order inversion is intentional
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`,
	})
	wantFindings(t, runOnly(t, mod, "lockorder", "./..."))
}

// TestLockOrderCrossPackageCycle: the inversion spans an import edge —
// one leg is a direct acquisition, the other is witnessed through a call
// into the dependency package, so the finding carries the call path.
func TestLockOrderCrossPackageCycle(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"deep/deep.go": `package deep

import "sync"

// D exports its latch so a sibling package can order against it.
type D struct{ Mu sync.Mutex }

func (d *D) Grab() { d.Mu.Lock() }
func (d *D) Drop() { d.Mu.Unlock() }
`,
		"top/top.go": `package top

import (
	"sync"

	"polardb/deep"
)

type T struct{ mu sync.Mutex }

func One(t *T, d *deep.D) {
	t.mu.Lock()
	d.Grab()
	d.Drop()
	t.mu.Unlock()
}

func Two(t *T, d *deep.D) {
	d.Mu.Lock()
	t.mu.Lock()
	t.mu.Unlock()
	d.Mu.Unlock()
}
`,
	})
	got := runOnly(t, mod, "lockorder", "./...")
	wantFindings(t, got,
		[3]interface{}{"lockorder", "top/top.go", 20})
	msg := got[0].Message
	if !strings.Contains(msg, "lock-order cycle") || !strings.Contains(msg, "top.T.mu") ||
		!strings.Contains(msg, "deep.D.Mu") || !strings.Contains(msg, "Grab") {
		t.Errorf("cycle message %q should name both classes and the Grab call path", msg)
	}
}

// TestLockOrderReadersDoNotCycle: an order inversion between pure RLock
// acquisitions cannot deadlock (readers admit each other), so no finding.
func TestLockOrderReadersDoNotCycle(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"rw/rw.go": `package rw

import "sync"

type P struct{ mu sync.RWMutex }

type Q struct{ mu sync.RWMutex }

func ReadPQ(p *P, q *Q) {
	p.mu.RLock()
	q.mu.RLock()
	q.mu.RUnlock()
	p.mu.RUnlock()
}

func ReadQP(p *P, q *Q) {
	q.mu.RLock()
	p.mu.RLock()
	p.mu.RUnlock()
	q.mu.RUnlock()
}
`,
	})
	wantFindings(t, runOnly(t, mod, "lockorder", "./..."))
}

// TestLockOrderWriterClosesReaderRing: adding one write-mode ordering to
// the reader ring makes the ring blockable again, and the cycle is
// reported at the writer's witness.
func TestLockOrderWriterClosesReaderRing(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"rw/rw.go": `package rw

import "sync"

type P struct{ mu sync.RWMutex }

type Q struct{ mu sync.RWMutex }

func ReadQP(p *P, q *Q) {
	q.mu.RLock()
	p.mu.RLock()
	p.mu.RUnlock()
	q.mu.RUnlock()
}

func WritePQ(p *P, q *Q) {
	p.mu.Lock()
	q.mu.Lock()
	q.mu.Unlock()
	p.mu.Unlock()
}
`,
	})
	got := runOnly(t, mod, "lockorder", "./...")
	wantFindings(t, got,
		[3]interface{}{"lockorder", "rw/rw.go", 18})
	if !strings.Contains(got[0].Message, "lock-order cycle") {
		t.Errorf("message %q does not describe a cycle", got[0].Message)
	}
}

// TestLockOrderInterfaceDispatch: one leg of the cycle is an acquisition
// behind an interface method, resolved against the concrete implementing
// type; the lock graph records the dispatched edge with its call path.
func TestLockOrderInterfaceDispatch(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"iface/iface.go": `package iface

import "sync"

type Locker interface {
	Grab()
	Drop()
}

type C struct{ mu sync.Mutex }

func (c *C) Grab() { c.mu.Lock() }
func (c *C) Drop() { c.mu.Unlock() }

type A struct{ mu sync.Mutex }

func Do(a *A, l Locker) {
	a.mu.Lock()
	l.Grab()
	l.Drop()
	a.mu.Unlock()
}

func Rev(a *A, c *C) {
	c.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	c.mu.Unlock()
}
`,
	})
	res := solve(t, mod, "lockorder", "./...")
	got := res.Findings
	wantFindings(t, got,
		[3]interface{}{"lockorder", "iface/iface.go", 26})
	if !strings.Contains(got[0].Message, "Grab") {
		t.Errorf("cycle message %q should carry the interface-dispatched Grab path", got[0].Message)
	}

	g := res.LockGraph()
	if len(g.Classes) != 2 || g.Classes[0] != "iface.A.mu" || g.Classes[1] != "iface.C.mu" {
		t.Fatalf("classes = %v, want [iface.A.mu iface.C.mu]", g.Classes)
	}
	found := false
	for _, e := range g.Edges {
		if e.From == "iface.A.mu" && e.To == "iface.C.mu" {
			found = true
			if !strings.Contains(e.Path, "Grab") {
				t.Errorf("dispatched edge path %q should name Grab", e.Path)
			}
		}
	}
	if !found {
		t.Errorf("lock graph %+v missing the interface-dispatched edge iface.A.mu -> iface.C.mu", g.Edges)
	}
}

// TestLockOrderVerbUnderCalleeLatch covers the two held-over-fabric
// shapes that cross a function boundary: a verb issued while
// a latch was taken by a cross-package callee, and a call whose callee
// transitively issues the verb while the caller holds the latch.
func TestLockOrderVerbUnderCalleeLatch(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"store/store.go": `package store

import (
	"sync"

	"polardb/internal/rdma"
)

// S hands its latch across package boundaries.
type S struct{ mu sync.Mutex }

func (s *S) LockIt()   { s.mu.Lock() }
func (s *S) UnlockIt() { s.mu.Unlock() }

func helper(ep *rdma.Endpoint) {
	_, _ = ep.Load64(rdma.Addr{})
}

func (s *S) Risky(ep *rdma.Endpoint) {
	s.mu.Lock()
	helper(ep)
	s.mu.Unlock()
}
`,
		"fetch/fetch.go": `package fetch

import (
	"polardb/internal/rdma"
	"polardb/store"
)

func Indirect(ep *rdma.Endpoint, s *store.S) error {
	s.LockIt()
	defer s.UnlockIt()
	return ep.Write(rdma.Addr{}, nil)
}
`,
	})
	got := runOnly(t, mod, "lockorder", "./...")
	wantFindings(t, got,
		[3]interface{}{"lockorder", "fetch/fetch.go", 11},
		[3]interface{}{"lockorder", "store/store.go", 21})
	if !strings.Contains(got[0].Message, "store.S.mu") {
		t.Errorf("indirect-hold finding %q should name store.S.mu", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "Load64") {
		t.Errorf("callee-verb finding %q should trace to Load64", got[1].Message)
	}
}

// TestCallGraphMethodValues: a method value captured into a local
// (h := t.M; h()) resolves to the bound method.
func TestCallGraphMethodValues(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"mv/mv.go": `package mv

type T struct{}

func (t *T) M() {}

func Use(t *T) {
	h := t.M
	h()
}
`,
	})
	p, err := mod.Load("polardb/mv")
	if err != nil {
		t.Fatal(err)
	}
	idx := buildModuleIndex([]*Package{p})
	body := funcBody(t, p, "Use")
	call := identCall(t, body)
	got := idx.resolveCall(p, call, methodBindings(p, body))
	if len(got) != 1 || got[0].Name() != "M" {
		t.Fatalf("resolveCall(h()) = %v, want [M]", got)
	}
}

// TestCallGraphInterfaceResolution: a call through an interface fans out
// to every module type implementing it (by value or pointer receiver),
// and to nothing else.
func TestCallGraphInterfaceResolution(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"ir/ir.go": `package ir

type I interface{ Do() }

type A struct{}

func (a *A) Do() {}

type B struct{}

func (b B) Do() {}

type N struct{}

func (n *N) Other() {}

func Call(i I) {
	i.Do()
}
`,
	})
	p, err := mod.Load("polardb/ir")
	if err != nil {
		t.Fatal(err)
	}
	idx := buildModuleIndex([]*Package{p})
	body := funcBody(t, p, "Call")
	var call *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			call = c
		}
		return true
	})
	got := idx.resolveCall(p, call, nil)
	var names []string
	for _, fn := range got {
		names = append(names, recvTypeName(fn)+"."+fn.Name())
	}
	if len(names) != 2 || names[0] != "A.Do" || names[1] != "B.Do" {
		t.Fatalf("resolveCall(i.Do()) = %v, want [A.Do B.Do]", names)
	}
}

// TestPolarvetTimeBudget is the polarvet-bench guard: the whole-module
// analysis (all analyzers, module call graph, interprocedural fixpoints)
// must stay fast enough to sit in CI and in developers' inner loops. The
// budget is far above today's cost (~2s) but low enough to catch a
// fixpoint that stops converging or an accidentally quadratic pass.
func TestPolarvetTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis skipped in -short mode")
	}
	const budget = 90 * time.Second
	start := time.Now()
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mod, []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	res.LockGraph()
	res.FabricReport()
	if d := time.Since(start); d > budget {
		t.Fatalf("full-module polarvet run took %v, budget %v", d, budget)
	}
}

// funcBody finds the body of the named top-level function in p.
func funcBody(t *testing.T, p *Package, name string) *ast.BlockStmt {
	t.Helper()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
				return fd.Body
			}
		}
	}
	t.Fatalf("no function %q in %s", name, p.Path)
	return nil
}

// identCall finds the call-through-identifier expression in body.
func identCall(t *testing.T, body *ast.BlockStmt) *ast.CallExpr {
	t.Helper()
	var call *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if _, ok := c.Fun.(*ast.Ident); ok {
				call = c
			}
		}
		return true
	})
	if call == nil {
		t.Fatal("no identifier call in body")
	}
	return call
}
