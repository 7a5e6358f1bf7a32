package polar

import (
	"fmt"
	"testing"
	"time"

	"polardb/internal/stat"
)

// checkStatsSurvive runs an RW replacement (switch-over or failover),
// commits three more writes and checks db.Stats still counts the whole
// deployment: counters never fall back to the new RW engine's zero, and
// Commits is the registry's engine.txn.commit total.
func checkStatsSurvive(t *testing.T, db *DB, s *Session, table string, replaceRW func() error) {
	t.Helper()
	before := db.Stats()
	if before.Commits == 0 {
		t.Fatalf("no commits before the RW replacement: %+v", before)
	}
	if err := replaceRW(); err != nil {
		t.Fatal(err)
	}
	mid := db.Stats()
	for k := uint64(1000); k < 1003; k++ {
		if err := s.Exec(table, OpPut, k, []byte("after")); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Stats()
	if mid.Commits < before.Commits || after.Commits < mid.Commits+3 {
		t.Fatalf("commits %d -> %d -> %d across RW replacement, want monotone and +3", before.Commits, mid.Commits, after.Commits)
	}
	b, m, a := before.RemoteReads+before.StorageReads, mid.RemoteReads+mid.StorageReads, after.RemoteReads+after.StorageReads
	if m < b || a < m {
		t.Fatalf("page reads %d -> %d -> %d decreased across RW replacement", b, m, a)
	}
	if total := stat.Total(db.Metrics().Snapshot()).Counter("engine.txn.commit"); after.Commits != total {
		t.Fatalf("Stats().Commits = %d, registry engine.txn.commit total = %d", after.Commits, total)
	}
}

func TestPublicAPIQuickstart(t *testing.T) {
	db, err := Open(Options{ReadReplicas: 1, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("users"); err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	if err := s.Exec("users", OpPut, 1, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("users", 1)
	if err != nil || !ok || string(v) != "alice" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	// Transactions.
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(10); k < 20; k++ {
		if err := s.Exec("users", OpInsert, k, []byte(fmt.Sprintf("u%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := s.Scan("users", 0, 100, func(uint64, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("scan = %d, want 11", n)
	}
	st := db.Stats()
	if st.Commits == 0 || st.MemoryPages == 0 {
		t.Fatalf("stats: %+v", st)
	}
	checkStatsSurvive(t, db, s, "users", db.Failover)
}

func TestPublicAPIScaling(t *testing.T) {
	db, err := Open(Options{HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := db.MemoryPages()
	grown, err := db.GrowMemory(1)
	if err != nil || grown <= base {
		t.Fatalf("grow: %d -> %d, %v", base, grown, err)
	}
	if _, err := db.ShrinkMemory(base); err != nil {
		t.Fatal(err)
	}
	if err := db.ResizeLocalCaches(128); err != nil {
		t.Fatal(err)
	}
	if err := db.AddReadReplica(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISwitchOver(t *testing.T) {
	db, err := Open(Options{ReadReplicas: 1, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	if err := s.Exec("t", OpPut, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	checkStatsSurvive(t, db, s, "t", db.SwitchOver)
	v, ok, err := s.Get("t", 1)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("after switchover: %q %v %v", v, ok, err)
	}
}
