package lint

import "testing"

// The golden corpus for the dataflow analyzers: each test materializes a
// throwaway module with deliberate violations (and their clean twins) and
// pins the exact findings. These are the regression suite for the CFG
// engine — a precision or soundness change shows up here as a diff.

// pairingSrc is a fake internal/engine exercising every pairTable shape:
// a leaked mini-transaction, a leaked pin, a leaked global latch, a leak
// through an intra-package constructor summary, a fully-released
// function using the committed-defer idiom (clean), and a leaked pin on
// a page from FetchNew.
const pairingSrc = `package engine

type Frame struct{}

type Engine struct{}

type Mtr struct{ e *Engine }

func (e *Engine) BeginMtr() *Mtr { return &Mtr{e} }

func (m *Mtr) Commit() (uint64, error) { return 0, nil }

func (e *Engine) Fetch(id uint64) (*Frame, error) { return &Frame{}, nil }

func (e *Engine) Unpin(f *Frame) {}

func (e *Engine) PLLockX(f *Frame) error { return nil }

func (e *Engine) PLUnlockX(f *Frame) {}

func leakMtr(e *Engine, bad bool) error {
	mt := e.BeginMtr()
	if bad {
		return nil // line 24: mtr leaked
	}
	_, err := mt.Commit()
	return err
}

func leakPin(e *Engine, bad bool) error {
	f, err := e.Fetch(1)
	if err != nil {
		return err // clean: nothing was pinned
	}
	if bad {
		return nil // line 36: pin leaked
	}
	e.Unpin(f)
	return nil
}

func leakLatch(e *Engine, f *Frame, bad bool) error {
	if err := e.PLLockX(f); err != nil {
		return err // clean: latch not taken
	}
	if bad {
		return nil // line 47: latch leaked
	}
	e.PLUnlockX(f)
	return nil
}

func ctor(e *Engine) (*Frame, error) {
	f, err := e.Fetch(2)
	if err != nil {
		return nil, err
	}
	return f, nil // transfer to caller: clean here
}

func leakFromCtor(e *Engine, bad bool) error {
	f, err := ctor(e)
	if err != nil {
		return err
	}
	if bad {
		return nil // line 67: pin from the constructor leaked
	}
	e.Unpin(f)
	return nil
}

func committedDefer(e *Engine, f *Frame) error {
	g, err := e.Fetch(3)
	if err != nil {
		return err
	}
	defer e.Unpin(g)
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit()
		}
	}()
	if err := e.PLLockX(f); err != nil {
		return err
	}
	defer e.PLUnlockX(f)
	committed = true
	_, err = mt.Commit()
	return err
}

func (e *Engine) FetchNew(id uint64) (*Frame, error) { return &Frame{}, nil }

func leakNewPage(e *Engine, bad bool) error {
	f, err := e.FetchNew(4)
	if err != nil {
		return err // clean: nothing was pinned
	}
	if bad {
		return nil // line 103: pin on the allocated page leaked
	}
	e.Unpin(f)
	return nil
}
`

func TestPairing(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/engine/engine.go": pairingSrc,
	})
	wantFindings(t, runOnly(t, mod, "pairing", "./internal/engine"),
		[3]interface{}{"pairing", "internal/engine/engine.go", 24},
		[3]interface{}{"pairing", "internal/engine/engine.go", 36},
		[3]interface{}{"pairing", "internal/engine/engine.go", 47},
		[3]interface{}{"pairing", "internal/engine/engine.go", 67},
		[3]interface{}{"pairing", "internal/engine/engine.go", 103})
}

// verbDeadlineSrc is a fake internal/cluster: a bare Call, a
// data-dependent verb spin, and a spin through a package-local helper are
// reported; the counted, Backoff-bounded and select-cancellable loops are
// not, and neither is CallTimeout.
const verbDeadlineSrc = `package cluster

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

func TestVerbDeadline(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/retry/retry.go": `package retry

type Backoff struct{}

func (b *Backoff) Next() bool { return false }
`,
		"internal/cluster/cluster.go": verbDeadlineSrc,
	})
	wantFindings(t, runOnly(t, mod, "verbdeadline", "./internal/cluster"),
		[3]interface{}{"verbdeadline", "internal/cluster/cluster.go", 9},
		[3]interface{}{"verbdeadline", "internal/cluster/cluster.go", 19},
		[3]interface{}{"verbdeadline", "internal/cluster/cluster.go", 29})
}

// regionEscapeSrc is a fake internal/rmem: returning an alias from an
// exported function, storing it into a struct field, and sending it on a
// channel from a WithBytes callback all escape; copying out does not.
const regionEscapeSrc = `package rmem

import "polardb/internal/rdma"

type holder struct{ buf []byte }

func Leak(r *rdma.Region) []byte {
	return r.BytesAt(0, 8) // line 8: alias returned across the boundary
}

func Stash(h *holder, r *rdma.Region) {
	b := r.BytesAt(0, 8)
	h.buf = b // line 13: alias stored past the call
}

func LeakCallback(r *rdma.Region, ch chan []byte) {
	_ = r.WithBytesLocal(0, 8, func(b []byte) error {
		ch <- b // line 18: alias escapes the accessor scope
		return nil
	})
}

func Copies(r *rdma.Region) []byte {
	b := r.BytesAt(0, 8)
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
`

func TestRegionEscape(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/rmem/rmem.go": regionEscapeSrc,
	})
	wantFindings(t, runOnly(t, mod, "regionescape", "./internal/rmem"),
		[3]interface{}{"regionescape", "internal/rmem/rmem.go", 8},
		[3]interface{}{"regionescape", "internal/rmem/rmem.go", 13},
		[3]interface{}{"regionescape", "internal/rmem/rmem.go", 18})
}

// TestLockHeldTryLockAndMethodValues pins two same-function shapes of
// lockorder's held-over-fabric finding: TryLock/TryRLock count as
// acquisitions, and mutex methods captured into locals keep their
// transition semantics.
func TestLockHeldTryLockAndMethodValues(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/rdma/rdma.go": fakeRdma,
		"internal/engine/engine.go": `package engine

import (
	"sync"

	"polardb/internal/rdma"
)

type tnode struct {
	mu sync.Mutex
	rw sync.RWMutex
	ep *rdma.Endpoint
}

func (n *tnode) tryLockHeld(a rdma.Addr, buf []byte) error {
	if !n.mu.TryLock() {
		return nil
	}
	defer n.mu.Unlock()
	return n.ep.Read(a, buf) // line 20: TryLock held
}

func (n *tnode) tryRLockReleased(a rdma.Addr, buf []byte) error {
	if n.rw.TryRLock() {
		n.rw.RUnlock()
	}
	return n.ep.Read(a, buf)
}

func (n *tnode) methodValueHeld(a rdma.Addr, buf []byte) error {
	lock, unlock := n.mu.Lock, n.mu.Unlock
	lock()
	defer unlock()
	return n.ep.Read(a, buf) // line 34: held through captured methods
}

func (n *tnode) methodValueReleased(a rdma.Addr, buf []byte) error {
	unlock := n.mu.Unlock
	n.mu.Lock()
	unlock()
	return n.ep.Read(a, buf)
}
`,
	})
	wantFindings(t, runOnly(t, mod, "lockorder", "./internal/engine"),
		[3]interface{}{"lockorder", "internal/engine/engine.go", 20},
		[3]interface{}{"lockorder", "internal/engine/engine.go", 34})
}

// TestDirectiveAudit pins the allow-audit: a directive naming an unknown
// analyzer and a directive that suppresses nothing are both reported.
func TestDirectiveAudit(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"internal/engine/engine.go": `package engine

import "time"

func paced() {
	//polarvet:allow nosuchcheck this analyzer does not exist
	time.Sleep(time.Millisecond) //polarvet:allow nosleep demo pacing
}

//polarvet:allow nosleep nothing here sleeps
func quiet() {}
`,
	})
	wantFindings(t, run(t, mod, "./..."),
		[3]interface{}{"directive", "internal/engine/engine.go", 6},
		[3]interface{}{"directive", "internal/engine/engine.go", 10})
}
