package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"polardb/internal/btree"
	"polardb/internal/rdma"
)

func testConfig() Config {
	return Config{
		Fabric:            rdma.TestConfig(),
		RONodes:           2,
		MemorySlabs:       4,
		SlabPages:         256,
		LocalCachePages:   256,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   3,
	}
}

func launch(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := Launch(cfg)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// pageReads is the number of pages a node's engine fetched from the
// remote memory and storage tiers.
func pageReads(n *DBNode) uint64 {
	m := n.EP.Metrics().Snapshot()
	return m.Counter("engine.page.remote_read") + m.Counter("engine.page.storage_read")
}

func TestLaunchAndBasicTraffic(t *testing.T) {
	c := launch(t, testConfig())
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for k := uint64(1); k <= 50; k++ {
		if err := s.Exec("t", OpPut, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for k := uint64(1); k <= 50; k++ {
		v, ok, err := s.Get("t", k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("get %d: %q %v %v", k, v, ok, err)
		}
	}
	// Reads go to RO nodes (round robin): both ROs should have traffic.
	for _, ro := range c.ROs {
		if pageReads(ro) == 0 {
			t.Fatalf("RO %s served no reads", ro.ID)
		}
	}
}

func TestSessionTransaction(t *testing.T) {
	c := launch(t, testConfig())
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 5; k++ {
		if err := s.Exec("t", OpInsert, k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Savepoint() != 5 {
		t.Fatalf("savepoint = %d, want 5", s.Savepoint())
	}
	// Own reads see the writes.
	if _, ok, err := s.Get("t", 3); !ok || err != nil {
		t.Fatalf("own read: %v %v", ok, err)
	}
	// Another session does not (uncommitted).
	s2 := c.Proxy.Connect()
	defer s2.Close()
	if _, ok, _ := s2.Get("t", 3); ok {
		t.Fatal("uncommitted write visible to another session")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get("t", 3); !ok {
		t.Fatal("committed write invisible")
	}
}

func TestScanThroughProxy(t *testing.T) {
	c := launch(t, testConfig())
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for k := uint64(0); k < 100; k++ {
		if err := s.Exec("t", OpPut, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := s.Scan("t", 10, 60, func(uint64, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("scan = %d, want 50", n)
	}
}

// TestAutocommitReadOnRWReleasesView: with no read replica, autocommit
// reads are served by the RW, where BeginRO registers its view for the
// purge horizon. The session must finish that read-only transaction, or
// the horizon stays pinned at the first read and nothing deleted after
// it is ever purged.
func TestAutocommitReadOnRWReleasesView(t *testing.T) {
	cfg := testConfig()
	cfg.RONodes = 0
	c := launch(t, cfg)
	tbl, err := c.RW.Engine.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	if err := s.Exec("t", OpPut, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("t", 1); err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if err := s.Scan("t", 0, 10, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec("t", OpDelete, 1, nil); err != nil {
		t.Fatal(err)
	}
	// The tombstone becomes purgeable once its commit timestamp is
	// backfilled (asynchronously) — unless a leaked view holds the
	// horizon below it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		purged, err := c.RW.Engine.PurgeTombstones(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if purged == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("purged %d tombstones, want 1: an autocommit read's view still pins the purge horizon", purged)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestUnplannedFailoverViaHeartbeat(t *testing.T) {
	c := launch(t, testConfig())
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for k := uint64(0); k < 50; k++ {
		if err := s.Exec("t", OpPut, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	oldRW := c.Proxy.rwNode()
	// Crash the RW; the CM heartbeat detects and promotes an RO. (Teardown
	// of the dead engine waits out a libpfs client timeout, so allow time.)
	oldRW.EP.Kill()
	deadline := time.Now().Add(20 * time.Second)
	for c.Proxy.rwNode() == oldRW {
		if time.Now().After(deadline) {
			t.Fatal("CM did not fail over")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Autocommit traffic continues against the new RW.
	if err := s.Exec("t", OpPut, 1000, []byte("post")); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	v, ok, err := s.Get("t", 25)
	if err != nil || !ok || string(v) != "v25" {
		t.Fatalf("read after failover: %q %v %v", v, ok, err)
	}
}

func TestUnplannedFailoverAbortsOpenTxn(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = time.Hour // manual failover only
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	if err := s.Exec("t", OpPut, 1, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec("t", OpPut, 1, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := c.CM.Failover(false); err != nil {
		t.Fatalf("failover: %v", err)
	}
	// The open transaction is lost.
	if err := s.Exec("t", OpPut, 2, []byte("x")); !errors.Is(err, ErrTxnLost) {
		t.Fatalf("err = %v, want ErrTxnLost", err)
	}
	_ = s.Rollback() // clears the lost state
	// The dirty write was rolled back by recovery.
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, ok, err := s.Get("t", 1)
		if err == nil && ok && string(v) == "committed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("uncommitted write survived: %q %v %v", v, ok, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPlannedSwitchResumesTxnFromSavepoint(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = time.Hour
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	// A long-running multi-statement transaction (bulk insert).
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 10; k++ {
		if err := s.Exec("t", OpInsert, k, []byte(fmt.Sprintf("row%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	sp := s.Savepoint()

	// Planned switch (auto-scaling migration).
	if err := c.CM.SwitchOver(); err != nil {
		t.Fatalf("switchover: %v", err)
	}
	// The transaction resumes: previous statements' effects are intact and
	// further statements continue from the savepoint.
	if s.Savepoint() != sp {
		t.Fatalf("savepoint reset: %d -> %d", sp, s.Savepoint())
	}
	for k := uint64(11); k <= 15; k++ {
		if err := s.Exec("t", OpInsert, k, []byte(fmt.Sprintf("row%d", k))); err != nil {
			t.Fatalf("insert %d after switch: %v", k, err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit after switch: %v", err)
	}
	for k := uint64(1); k <= 15; k++ {
		v, ok, err := s.Get("t", k)
		if err != nil || !ok || string(v) != fmt.Sprintf("row%d", k) {
			t.Fatalf("row %d after resumed txn: %q %v %v", k, v, ok, err)
		}
	}
}

func TestPlannedSwitchTransparentToAutocommit(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = time.Hour
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// Continuous autocommit writers across a planned switch: no errors.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			s := c.Proxy.Connect()
			defer s.Close()
			k := base * 1_000_000
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Exec("t", OpPut, k, []byte("v")); err != nil {
					errCh <- fmt.Errorf("writer %d at %d: %w", base, k, err)
					return
				}
				k++
			}
		}(uint64(w))
	}
	time.Sleep(50 * time.Millisecond)
	if err := c.CM.SwitchOver(); err != nil {
		t.Fatalf("switchover: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("writer failed across planned switch: %v", err)
	default:
	}
}

func TestMemoryElasticity(t *testing.T) {
	c := launch(t, testConfig())
	base := c.Home.TotalSlots()
	grown, err := c.GrowMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	if grown != base+2*c.cfg.SlabPages {
		t.Fatalf("grown = %d, want %d", grown, base+2*c.cfg.SlabPages)
	}
	shrunk, err := c.ShrinkMemory(base)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk > base {
		t.Fatalf("shrunk = %d, want <= %d", shrunk, base)
	}
}

func TestAddROLive(t *testing.T) {
	cfg := testConfig()
	cfg.RONodes = 1
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	if err := s.Exec("t", OpPut, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	ro, err := c.AddRO()
	if err != nil {
		t.Fatal(err)
	}
	// New RO serves reads.
	deadline := time.Now().Add(2 * time.Second)
	for pageReads(ro) == 0 {
		if _, _, err := s.Get("t", 1); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("new RO never served a read")
		}
	}
}

func TestNoRemoteMemoryCluster(t *testing.T) {
	cfg := testConfig()
	cfg.NoRemoteMemory = true
	cfg.RONodes = 0
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for k := uint64(0); k < 50; k++ {
		if err := s.Exec("t", OpPut, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := s.Get("t", 25)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("baseline get: %q %v %v", v, ok, err)
	}
}

func TestSessionSecondaryIndex(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = time.Hour
	c := launch(t, cfg)
	tbl, err := c.RW.Engine.CreateTable("emp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RW.Engine.CreateIndex(tbl, "by_age"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	// One transaction maintains base table + index together.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for pk := uint64(1); pk <= 20; pk++ {
		age := 20 + pk%5
		if err := s.Exec("emp", OpInsert, pk, []byte(fmt.Sprintf("row%d", pk))); err != nil {
			t.Fatal(err)
		}
		if err := s.ExecIndex("emp", "by_age", OpInsert, age<<32|pk, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Index range scan -> base-table point reads, through the proxy.
	var pks []uint64
	if err := s.ScanIndex("emp", "by_age", 22<<32, 24<<32, func(k uint64, _ []byte) bool {
		pks = append(pks, k&0xFFFFFFFF)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pks) != 8 {
		t.Fatalf("index scan found %d pks, want 8", len(pks))
	}
	for _, pk := range pks {
		if _, ok, _ := s.Get("emp", pk); !ok {
			t.Fatalf("pk %d from index missing in base table", pk)
		}
	}
	// Unknown index errors cleanly.
	if err := s.ExecIndex("emp", "nope", OpInsert, 1, nil); err == nil {
		t.Fatal("write to unknown index succeeded")
	}
}

func TestROPessimisticMode(t *testing.T) {
	cfg := testConfig()
	cfg.ROMode = btree.PessimisticS
	cfg.RONodes = 1
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for k := uint64(0); k < 30; k++ {
		if err := s.Exec("t", OpPut, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 30; k++ {
		if _, ok, err := s.Get("t", k); !ok || err != nil {
			t.Fatalf("plock get %d: %v %v", k, ok, err)
		}
	}
	ro := c.ROs[0]
	if m := ro.EP.Metrics().Snapshot(); m.Counter("rmem.pl.fast")+m.Counter("rmem.pl.slow") == 0 {
		t.Fatal("pessimistic RO took no PL latches")
	}
}
