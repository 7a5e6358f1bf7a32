package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestHomeNodeFailover(t *testing.T) {
	cfg := testConfig()
	cfg.SlaveHome = true
	cfg.HeartbeatInterval = time.Hour
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for k := uint64(0); k < 100; k++ {
		if err := s.Exec("t", OpPut, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash the home; the synchronously-replicated slave takes over.
	if err := c.FailoverHome(); err != nil {
		t.Fatalf("home failover: %v", err)
	}
	// All data still readable, and new writes work (pages revalidate via
	// the conservative PIB-stale marks).
	for k := uint64(0); k < 100; k += 9 {
		v, ok, err := s.Get("t", k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d after home failover: %q %v %v", k, v, ok, err)
		}
	}
	if err := s.Exec("t", OpPut, 500, []byte("post")); err != nil {
		t.Fatalf("write after home failover: %v", err)
	}
	if v, ok, _ := s.Get("t", 500); !ok || string(v) != "post" {
		t.Fatalf("post-failover write lost: %q %v", v, ok)
	}
}

// TestScanRetryDeliversEachRowOnce: an autocommit scan whose reader loses
// the memory pool mid-scan (the home and its slabs crash from the row
// callback) is retried by the proxy, and the retry resumes after the last
// row delivered instead of delivering the earlier rows again.
func TestScanRetryDeliversEachRowOnce(t *testing.T) {
	cfg := testConfig()
	cfg.RONodes = 1
	cfg.LocalCachePages = 16
	cfg.SlaveHome = true
	cfg.HeartbeatInterval = time.Hour
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	const rows = 2000
	val := make([]byte, 64)
	for k := uint64(0); k < rows; k++ {
		if err := s.Exec("t", OpPut, k, val); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	failed := make(chan error, 1)
	err := s.Scan("t", 0, rows, func(key uint64, _ []byte) bool {
		if len(got) == 0 {
			// The scan's later leaves are not in the reader's 16-page
			// cache, so its next fill finds the pool gone and fails.
			c.Home.Endpoint().Kill()
			go func() { failed <- c.FailoverHome() }()
		}
		got = append(got, key)
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if err := <-failed; err != nil {
		t.Fatalf("home failover: %v", err)
	}
	if len(got) != rows {
		t.Fatalf("scan delivered %d rows, want %d", len(got), rows)
	}
	for i, k := range got {
		if k != uint64(i) {
			t.Fatalf("row %d of the scan is key %d: a retry delivered rows again", i, k)
		}
	}
}

func TestFailoverHomeWithoutSlave(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = time.Hour
	c := launch(t, cfg)
	if err := c.FailoverHome(); err == nil {
		t.Fatal("home failover without slave should fail")
	}
}

func TestClusterRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatInterval = time.Hour
	c := launch(t, cfg)
	if _, err := c.RW.Engine.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := c.Proxy.Connect()
	defer s.Close()
	for k := uint64(0); k < 80; k++ {
		if err := s.Exec("t", OpPut, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	// An open transaction must not survive the full restart.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec("t", OpPut, 5, []byte("dirty")); err != nil {
		t.Fatal(err)
	}

	// Total loss of all memory state (§5.3): rebuild from storage.
	if err := c.FullRestart(); err != nil {
		t.Fatalf("full restart: %v", err)
	}
	if err := s.Exec("t", OpPut, 200, []byte("x")); !errors.Is(err, ErrTxnLost) {
		t.Fatalf("open txn survived cluster recovery: err=%v", err)
	}
	_ = s.Rollback()

	// Committed data rebuilt from storage; pool starts cold.
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, ok, err := s.Get("t", 5)
		if err == nil && ok && string(v) == "v5" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dirty write not rolled back after cluster recovery: %q %v %v", v, ok, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for k := uint64(0); k < 80; k += 7 {
		v, ok, err := s.Get("t", k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d after cluster recovery: %q %v %v", k, v, ok, err)
		}
	}
	// And it keeps serving writes.
	if err := s.Exec("t", OpPut, 300, []byte("after")); err != nil {
		t.Fatalf("write after cluster recovery: %v", err)
	}
}
