package cluster

import (
	"fmt"
	"testing"
	"time"
)

// TestReadYourWritesAcrossNodes: once a commit on the RW has returned, an
// autocommit read routed to an RO node sees it — the view the RO reads
// one-sided was republished before the commit returned.
func TestReadYourWritesAcrossNodes(t *testing.T) {
	c := launch(t, testConfig())
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for i := 0; i < 200; i++ {
		want := fmt.Sprintf("v%d", i)
		if err := s.Exec("t", OpPut, uint64(i%5), []byte(want)); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.Get("t", uint64(i%5))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("read after commit %d: %q %v %v, want %q", i, v, ok, err, want)
		}
	}
	for _, ro := range c.ROs {
		if pageReads(ro) == 0 {
			t.Fatalf("RO %s served no reads; the test checks nothing", ro.ID)
		}
	}
}

// TestInFlightTxnStaysInvisibleAcrossFailover: a transaction the crashed
// RW left in flight is in the new RW's first published view (it owns an
// undo slot), so the surviving RO never shows its writes — not right after
// the switch, while the background rollback runs, nor after it.
func TestInFlightTxnStaysInvisibleAcrossFailover(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = time.Hour // manual failover only
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	const keys = 1500 // enough for the rollback to still be running when the reads start
	for k := uint64(0); k < keys; k++ {
		if err := s.Exec("t", OpPut, k, []byte("committed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		if err := s.Exec("t", OpPut, k, []byte("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CM.Failover(false); err != nil {
		t.Fatalf("failover: %v", err)
	}
	_ = s.Rollback() // clears the session's lost-transaction state
	reader := c.Proxy.Connect()
	defer reader.Close()
	deadline := time.Now().Add(20 * time.Second)
	for pass, rolledBack := 0, false; !rolledBack; pass++ {
		// The pass that starts after the rollback has finished is the last.
		rolledBack = c.RW.Engine.ActiveTxnCount() == 0
		for k := uint64(0); k < keys; k++ {
			v, ok, err := reader.Get("t", k)
			if err != nil || !ok || string(v) != "committed" {
				t.Fatalf("pass %d key %d after failover: %q %v %v, want the committed row", pass, k, v, ok, err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the lost transaction is still being rolled back 20 s after the failover")
		}
	}
}
