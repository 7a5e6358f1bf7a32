package rmem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardb/internal/rdma"
)

// TestReplicationStallDoesNotBlockHomeMetadata is the regression test for
// the replication queue: mirroring a metadata mutation to the slave home
// must never happen while h.mu is held. A stalled (or slow) slave then
// delays only the caller waiting on its flush barrier — every other home
// metadata operation keeps serving at local-latch speed. Before the queue
// existed, the mirror call ran inside the h.mu critical section and a
// stalled slave froze the whole home for the call timeout.
func TestReplicationStallDoesNotBlockHomeMetadata(t *testing.T) {
	fabric := rdma.NewFabric(rdma.TestConfig())
	cfg := Config{InvalidateTimeout: 3 * time.Second, LatchTimeout: time.Second}
	cfg.applyDefaults()

	masterEP := fabric.MustAttach("home")
	NewSlabNode(masterEP, cfg)

	// A stand-in slave whose repl handler records each mirrored op and can
	// be stalled on demand.
	slaveEP := fabric.MustAttach("home2")
	var stall atomic.Bool
	release := make(chan struct{})
	ops := make(chan []byte, 16)
	slaveEP.RegisterHandler(method("repl"), func(from rdma.NodeID, req []byte) ([]byte, error) {
		ops <- req
		if stall.Load() {
			<-release
		}
		return nil, nil
	})

	master := NewHome(masterEP, cfg, "home2")
	defer master.Close()
	if _, err := master.AddSlab("home", 8); err != nil {
		t.Fatal(err)
	}
	<-ops // the AddSlab mirror, sent unstalled
	rw, err := NewPool(fabric.MustAttach("rw"), cfg, "home")
	if err != nil {
		t.Fatal(err)
	}
	<-ops // the hello's node-index mirror

	stall.Store(true)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()

	regDone := make(chan error, 1)
	go func() {
		_, err := rw.Register(pid(1))
		regDone <- err
	}()
	var regOp []byte
	select {
	case regOp = <-ops:
	case <-time.After(2 * time.Second):
		t.Fatal("replicated register op never reached the slave")
	}
	if regOp[0] != replOpRegister {
		t.Fatalf("first mirrored op = %d, want replOpRegister", regOp[0])
	}
	// The register reply is fenced behind the mirror: it must still be
	// waiting on its flush barrier while the slave stalls.
	select {
	case err := <-regDone:
		t.Fatalf("Register returned (err=%v) before the slave applied the mirror", err)
	default:
	}

	// The regression: a home metadata read (h.mu) must not queue behind
	// the stalled send.
	start := time.Now()
	_ = master.Scan()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Scan blocked %v behind a stalled replication send; h.mu is being held across the mirror call", d)
	}

	unblock()
	if err := <-regDone; err != nil {
		t.Fatalf("register after slave release: %v", err)
	}
}
