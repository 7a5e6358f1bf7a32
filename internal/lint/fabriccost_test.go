package lint

import (
	"strings"
	"testing"
)

// fakeWire mirrors internal/wire's codec surface, for fixtures that
// marshal a request before issuing the RPC.
const fakeWire = `package wire

type Writer struct{}

func NewWriter(n int) *Writer     { return &Writer{} }
func (w *Writer) U8(v uint8)      {}
func (w *Writer) U16(v uint16)    {}
func (w *Writer) U32(v uint32)    {}
func (w *Writer) U64(v uint64)    {}
func (w *Writer) Bool(v bool)     {}
func (w *Writer) String(s string) {}
func (w *Writer) Bytes() []byte   { return nil }

type Reader struct{}

func NewReader(b []byte) *Reader { return &Reader{} }
func (r *Reader) U8() uint8      { return 0 }
func (r *Reader) U16() uint16    { return 0 }
func (r *Reader) U32() uint32    { return 0 }
func (r *Reader) U64() uint64    { return 0 }
func (r *Reader) Bool() bool     { return false }
func (r *Reader) String() string { return "" }
func (r *Reader) Err() error     { return nil }
`

func TestFabricCostLoopCarriedVerb(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/rmem/pool.go": `package rmem

import "polardb/internal/rdma"

type Pool struct{ ep *rdma.Endpoint }

func (p *Pool) FanOut(nodes []rdma.NodeID, b []byte) {
	for _, n := range nodes {
		_, _ = p.ep.Call(n, "m", b)
	}
}

// Single issues the same verb outside any loop: O(1), no finding.
func (p *Pool) Single(n rdma.NodeID, b []byte) {
	_, _ = p.ep.Call(n, "m", b)
}

// Bounded retries are not fan-out: the trip count is a compile-time
// constant, so the cost class stays O(1).
func (p *Pool) Retry(n rdma.NodeID, b []byte) {
	for i := 0; i < 3; i++ {
		_, _ = p.ep.Call(n, "m", b)
	}
}
`,
	})
	got := runOnly(t, mod, "fabriccost", "./...")
	wantFindings(t, got, [3]interface{}{"fabriccost", "pool.go", 9})
	if !strings.Contains(got[0].Message, "loop-carried fan-out") {
		t.Errorf("message = %q, want loop-carried fan-out", got[0].Message)
	}
}

func TestFabricCostInterproceduralMultiplicity(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/rmem/pool.go": `package rmem

import "polardb/internal/rdma"

type Pool struct{ ep *rdma.Endpoint }

func (p *Pool) buf() []byte { return nil }

// one issues exactly one round trip.
func (p *Pool) one(n rdma.NodeID) error {
	_, err := p.ep.Call(n, "m", p.buf())
	return err
}

// Broadcast multiplies it per peer: the O(1) callee becomes the
// caller's O(n) fan-out.
func (p *Pool) Broadcast(nodes []rdma.NodeID) {
	for _, n := range nodes {
		_ = p.one(n)
	}
}
`,
	})
	res := solve(t, mod, "fabriccost", "./...")
	got := res.Findings
	wantFindings(t, got, [3]interface{}{"fabriccost", "pool.go", 19})
	if !strings.Contains(got[0].Message, "rmem.Pool.one") {
		t.Errorf("message = %q, want the callee named", got[0].Message)
	}

	costs := map[string]string{}
	for _, f := range res.FabricReport() {
		costs[f.Function] = f.RPC
	}
	if costs["rmem.Pool.one"] != "O(1)" {
		t.Errorf("one RPC cost = %q, want O(1)", costs["rmem.Pool.one"])
	}
	if costs["rmem.Pool.Broadcast"] != "O(n)" {
		t.Errorf("Broadcast RPC cost = %q, want O(n) (loop-promoted through the call)", costs["rmem.Pool.Broadcast"])
	}
}

func TestFabricCostBatchedSendIsFlat(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/wire/wire.go": fakeWire,
		"internal/rmem/pool.go": `package rmem

import (
	"polardb/internal/rdma"
	"polardb/internal/wire"
)

type Pool struct{ ep *rdma.Endpoint }

// Batched marshals the whole list into one request: the loop moves
// bytes, not round trips, so the function stays O(1).
func (p *Pool) Batched(n rdma.NodeID, pages []uint32) error {
	w := wire.NewWriter(4 + 4*len(pages))
	w.U32(uint32(len(pages)))
	for _, pg := range pages {
		w.U32(pg)
	}
	_, err := p.ep.Call(n, "m", w.Bytes())
	return err
}
`,
	})
	res := solve(t, mod, "fabriccost", "./...")
	wantFindings(t, res.Findings)
	for _, f := range res.FabricReport() {
		if f.Function == "rmem.Pool.Batched" && f.RPC != "O(1)" {
			t.Errorf("Batched RPC cost = %q, want O(1)", f.RPC)
		}
	}
}

func TestFabricCostBudgets(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/rmem/pool.go": `package rmem

import "polardb/internal/rdma"

type Pool struct{ ep *rdma.Endpoint }

// Ok really is one round trip.
//polarvet:fabric O(1) a single probe
func (p *Pool) Ok(n rdma.NodeID, b []byte) error {
	_, err := p.ep.Call(n, "m", b)
	return err
}

// Violated grew a loop under its O(1) declaration.
//polarvet:fabric O(1) stale: the loop below breaks this
func (p *Pool) Violated(nodes []rdma.NodeID, b []byte) {
	for _, n := range nodes {
		_, _ = p.ep.Call(n, "m", b)
	}
}

// Loose declares more cost than the body has.
//polarvet:fabric O(n) stale: there is no loop here
func (p *Pool) Loose(n rdma.NodeID, b []byte) error {
	_, err := p.ep.Call(n, "m", b)
	return err
}
`,
	})
	res := solve(t, mod, "fabriccost", "./...")
	got := res.Findings
	wantFindings(t, got,
		[3]interface{}{"fabriccost", "pool.go", 15}, // budget violated (directive line)
		[3]interface{}{"fabriccost", "pool.go", 18}, // the loop-carried verb itself
		[3]interface{}{"fabriccost", "pool.go", 23}, // budget loose (directive line)
	)
	if !strings.Contains(got[0].Message, "fabric budget violated") {
		t.Errorf("finding 0 = %q, want a violated budget", got[0].Message)
	}
	if !strings.Contains(got[2].Message, "fabric budget loose") {
		t.Errorf("finding 2 = %q, want a loose budget", got[2].Message)
	}

	for _, f := range res.FabricReport() {
		if f.Function == "rmem.Pool.Ok" && f.Budget != "O(1)" {
			t.Errorf("Ok budget in report = %q, want O(1)", f.Budget)
		}
	}
}

func TestFabricCostDirectiveHygiene(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/rmem/pool.go": `package rmem

import "polardb/internal/rdma"

type Pool struct{ ep *rdma.Endpoint }

// A directive with an unknown level is malformed.
//polarvet:fabric O(n^2) nonsense level
func (p *Pool) Malformed(n rdma.NodeID, b []byte) {
	_, _ = p.ep.Call(n, "m", b)
}

// A directive not attached to a function budgets nothing.
//polarvet:fabric O(1) dangling
var placeholder = 1
`,
	})
	got := runOnly(t, mod, "fabriccost", "./...")
	wantFindings(t, got,
		[3]interface{}{"fabriccost", "pool.go", 8},
		[3]interface{}{"fabriccost", "pool.go", 14},
	)
	if !strings.Contains(got[0].Message, "malformed //polarvet:fabric") {
		t.Errorf("finding 0 = %q, want malformed directive", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "not attached to a function") {
		t.Errorf("finding 1 = %q, want dangling directive", got[1].Message)
	}
}

// deadlineSrc is a fake internal/cluster for the deadline findings: a
// bare Call, a data-dependent verb spin, and a spin through a
// package-local helper are reported; the counted, Backoff-bounded and
// select-cancellable loops are not, and neither is CallTimeout.
const deadlineSrc = `package cluster

import (
	"polardb/internal/rdma"
	"polardb/internal/retry"
)

func ask(ep *rdma.Endpoint, b []byte) ([]byte, error) {
	return ep.Call("x", "m", b) // line 9: no deadline
}

func askBounded(ep *rdma.Endpoint, b []byte) ([]byte, error) {
	return ep.CallTimeout("x", "m", b, 1000)
}

func spin(ep *rdma.Endpoint, a rdma.Addr) {
	v, _ := ep.Load64(a)
	for v != 0 {
		v, _ = ep.Load64(a) // line 19: unbounded retry
	}
}

func probe(ep *rdma.Endpoint, a rdma.Addr) uint64 {
	v, _ := ep.Load64(a)
	return v
}

func spinViaHelper(ep *rdma.Endpoint, a rdma.Addr) {
	for probe(ep, a) != 0 { // line 29: blocks through the helper
	}
}

func counted(ep *rdma.Endpoint, a rdma.Addr) {
	for i := 0; i < 8; i++ {
		_, _ = ep.Load64(a)
	}
}

func backedOff(ep *rdma.Endpoint, a rdma.Addr, b *retry.Backoff) {
	for b.Next() {
		_, _ = ep.Load64(a)
	}
}

func cancellable(ep *rdma.Endpoint, a rdma.Addr, stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		_, _ = ep.Load64(a)
	}
}
`

func TestFabricCostDeadlines(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/retry/retry.go": `package retry

type Backoff struct{}

func (b *Backoff) Next() bool { return false }
`,
		"internal/cluster/cluster.go": deadlineSrc,
	})
	wantFindings(t, runOnly(t, mod, "fabriccost", "./internal/cluster"),
		[3]interface{}{"fabriccost", "internal/cluster/cluster.go", 9},
		[3]interface{}{"fabriccost", "internal/cluster/cluster.go", 19},
		[3]interface{}{"fabriccost", "internal/cluster/cluster.go", 29})
}
