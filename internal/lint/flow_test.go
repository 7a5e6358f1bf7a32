package lint

import (
	"fmt"
	"strings"
	"testing"
)

// Tests for the dataflow core itself (flow.go): the one worklist, the one
// call-graph fixpoint and the one witness renderer, exercised directly
// rather than through an analyzer's findings.

// buildProgram loads every package of mod and builds its program.
func buildProgram(t *testing.T, mod *Module) *program {
	t.Helper()
	paths, err := mod.Packages("./...")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, path := range paths {
		p, err := mod.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return newProgram(pkgs)
}

// fn finds a function body by its qualified name ("pkg.Recv.Name").
func (prog *program) fn(t *testing.T, name string) *funcInfo {
	t.Helper()
	for _, f := range prog.funcs {
		if f.qualified() == name {
			return f
		}
	}
	t.Fatalf("no function %q in the program", name)
	return nil
}

// calledSet is a toy forward fact: the names of the functions called on
// some path to this point.
type calledSet map[string]bool

func (s calledSet) clone() calledSet {
	out := calledSet{}
	for k := range s {
		out[k] = true
	}
	return out
}

func (s calledSet) join(from calledSet) bool {
	changed := false
	for k := range from {
		if !s[k] {
			s[k], changed = true, true
		}
	}
	return changed
}

func (s calledSet) String() string {
	var names []string
	for _, n := range []string{"a", "b", "c"} {
		if s[n] {
			names = append(names, n)
		}
	}
	return strings.Join(names, ",")
}

// calledBefore runs the toy analysis over f and returns, for the block
// that calls target, the fact on entry to it, plus the number of times
// each block was transferred.
func calledBefore(t *testing.T, f *funcInfo, target string) (calledSet, map[*cfgBlock]int) {
	t.Helper()
	visits := map[*cfgBlock]int{}
	in := forward(f.g, calledSet{}, func(b *cfgBlock, st calledSet) {
		visits[b]++
		for _, cs := range b.calls {
			st[cs.callee.Name()] = true
		}
	}, nil)
	for _, b := range f.g.blocks {
		for _, cs := range b.calls {
			if cs.callee.Name() == target {
				return in[b], visits
			}
		}
	}
	t.Fatalf("%s never calls %s", f.name, target)
	return nil, nil
}

func TestForwardJoinsAndReachesFixpoint(t *testing.T) {
	prog := buildProgram(t, writeModule(t, map[string]string{
		"flow/flow.go": `package flow

func a() {}
func b() {}
func c() {}

func diamond(left bool) {
	if left {
		a()
	} else {
		b()
	}
	c()
}

func loop(n int) {
	for i := 0; i < n; i++ {
		c()
		a()
	}
	b()
}
`,
	}))

	// Diamond: both arms flow into the join block.
	got, _ := calledBefore(t, prog.fn(t, "flow.diamond"), "c")
	if got.String() != "a,b" {
		t.Errorf("diamond: fact before c() = {%s}, want {a,b} (union of both arms)", got)
	}

	// Loop: the back edge carries the body's calls to the top of the body,
	// and the loop exit sees them too; the worklist stops once nothing
	// grows, after a bounded number of visits per block.
	loop := prog.fn(t, "flow.loop")
	got, visits := calledBefore(t, loop, "c")
	if got.String() != "a,c" {
		t.Errorf("loop: fact before c() = {%s}, want {a,c} (carried around the back edge)", got)
	}
	if got, _ := calledBefore(t, loop, "b"); got.String() != "a,c" {
		t.Errorf("loop: fact before b() = {%s}, want {a,c}", got)
	}
	for _, b := range loop.g.blocks {
		// A block re-runs only when its entry fact grew: at most once per
		// name in this lattice, plus its first visit.
		if visits[b] > 4 {
			t.Errorf("loop: block %d transferred %d times, want a bounded handful", b.index, visits[b])
		}
	}
}

// reachesMark is a toy interprocedural fact: the function calls mark(),
// directly or through any resolved callee.
func reachesMark(prog *program) map[*funcInfo]bool {
	facts := map[*funcInfo]bool{}
	summarize(prog.funcs, facts, func(f *funcInfo) (bool, bool) {
		if facts[f] {
			return true, false
		}
		for _, cs := range f.calls {
			if cs.callee != nil && cs.callee.Name() == "mark" {
				return true, true
			}
			for _, t := range cs.targets {
				if facts[t] {
					return true, true
				}
			}
		}
		return false, false
	})
	return facts
}

func TestSummarizeRecursionAndDispatch(t *testing.T) {
	prog := buildProgram(t, writeModule(t, map[string]string{
		// ping.Ping and pong.P.Pong call each other across the package
		// boundary (the upward leg through an interface, as Go requires);
		// only Pong calls mark directly.
		"ping/ping.go": `package ping

type Peer interface{ Pong(n int) }

func Ping(p Peer, n int) {
	if n > 0 {
		p.Pong(n - 1)
	}
}

func Unrelated() {}
`,
		"pong/pong.go": `package pong

import "polardb/ping"

func mark() {}

type P struct{}

func (P) Pong(n int) {
	mark()
	ping.Ping(P{}, n)
}
`,
		// One interface call, two implementers, one of which marks.
		"disp/disp.go": `package disp

func mark() {}

type I interface{ Do() }

type X struct{}

func (X) Do() { mark() }

type Y struct{}

func (*Y) Do() {}

func Call(i I) { i.Do() }
`,
	}))
	facts := reachesMark(prog)
	for name, want := range map[string]bool{
		"pong.P.Pong":    true,
		"ping.Ping":      true, // only through the dispatch back into pong
		"ping.Unrelated": false,
		"disp.X.Do":      true,
		"disp.Y.Do":      false,
		"disp.Call":      true, // one implementer suffices
	} {
		if got := facts[prog.fn(t, name)]; got != want {
			t.Errorf("reachesMark(%s) = %v, want %v", name, got, want)
		}
	}

	call := prog.fn(t, "disp.Call")
	if len(call.calls) != 1 {
		t.Fatalf("disp.Call has %d call sites, want 1", len(call.calls))
	}
	var targets []string
	for _, f := range call.calls[0].targets {
		targets = append(targets, f.qualified())
	}
	if fmt.Sprint(targets) != "[disp.X.Do disp.Y.Do]" {
		t.Errorf("i.Do() targets = %v, want every implementer [disp.X.Do disp.Y.Do]", targets)
	}
}

// TestWitnessChainText pins the rendered explanation in its three uses:
// a cost-table path (starts below the function it belongs to), a
// held-across-fabric finding (names the callee first) and a lock-graph
// edge (ends in the bare acquisition site).
func TestWitnessChainText(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"store/store.go": `package store

import (
	"sync"

	"polardb/internal/rdma"
)

type S struct{ mu, other sync.Mutex }

func leaf(ep *rdma.Endpoint) {
	_, _ = ep.Load64(rdma.Addr{})
}

func mid(ep *rdma.Endpoint) { leaf(ep) }

func (s *S) Top(ep *rdma.Endpoint) {
	s.mu.Lock()
	mid(ep)
	s.mu.Unlock()
}

func (s *S) grab() {
	s.other.Lock()
}

func (s *S) viaGrab() { s.grab() }

func (s *S) Nest() {
	s.mu.Lock()
	s.viaGrab()
	s.other.Unlock()
	s.mu.Unlock()
}
`,
	})
	res := solve(t, mod, "lockorder", "./...")
	file := mod.Root + "/store/store.go"
	verbChain := "via store.mid → store.leaf → Load64 at " + file + ":12:9"

	var top FabricFuncCost
	for _, f := range res.FabricReport() {
		if f.Function == "store.S.Top" {
			top = f
		}
	}
	if len(top.Verbs) != 1 || top.Verbs[0].Path != verbChain {
		t.Errorf("cost-table path of store.S.Top = %+v, want %q", top.Verbs, verbChain)
	}

	wantFindings(t, res.Findings, [3]interface{}{"lockorder", "store/store.go", 19})
	if msg := res.Findings[0].Message; !strings.Contains(msg, "("+verbChain+")") {
		t.Errorf("held-across-fabric finding %q should explain itself with (%s)", msg, verbChain)
	}

	lockChain := "via store.S.viaGrab → store.S.grab → " + file + ":24:2"
	found := false
	for _, e := range res.LockGraph().Edges {
		if e.From == "store.S.mu" && e.To == "store.S.other" {
			found = true
			if e.Path != lockChain {
				t.Errorf("lock-graph edge path = %q, want %q", e.Path, lockChain)
			}
		}
	}
	if !found {
		t.Errorf("lock graph %+v lacks the edge store.S.mu -> store.S.other", res.LockGraph().Edges)
	}
}
