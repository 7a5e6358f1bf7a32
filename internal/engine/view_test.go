package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"polardb/internal/btree"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// TestROStatementCostsOneRead: BeginRO on an RO node is one one-sided read
// of the view the RW publishes, no RPC and no clock read; the first one
// also takes out the purge-horizon lease.
func TestROStatementCostsOneRead(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	ro := h.addRO(btree.Optimistic)
	first, err := ro.BeginRO()
	if err != nil {
		t.Fatal(err)
	}
	_ = first.Commit()
	before := ro.EP().Metrics().Snapshot()
	const n = 100
	for i := 0; i < n; i++ {
		tx, err := ro.BeginRO()
		if err != nil {
			t.Fatal(err)
		}
		_ = tx.Commit()
	}
	d := ro.EP().Metrics().Snapshot().Sub(before)
	if rpcs := d.Counter("rdma.rpc.ops"); rpcs != 0 {
		t.Fatalf("%d read views cost %d RPCs, want 0", n, rpcs)
	}
	if reads, views, clocks := d.Counter("rdma.read.ops"), d.Counter("txn.cts.read_ts.ops"), d.Counter("txn.cts.read_lsn.ops"); reads != n || views != n || clocks != 0 {
		t.Fatalf("%d read views: %d one-sided reads, %d counted as view reads, %d clock reads; want %d, %d, 0", n, reads, views, clocks, n, n)
	}
	h.rw.roViewsMu.Lock()
	leases := len(h.rw.roLeases)
	h.rw.roViewsMu.Unlock()
	if leases != 1 {
		t.Fatalf("RW holds %d leases after %d views within a second, want the first view's", leases, n+1)
	}
}

// TestUnpublishedViewIsAnError: an RO pointed at an RW that has neither
// bootstrapped nor recovered must not mistake the zeroed region for "no
// transaction in flight, timestamp 0".
func TestUnpublishedViewIsAnError(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	raw := h.newEngine(t, "rwx", Config{LocalCachePages: 64}, false, "")
	ro := h.newEngine(t, "rox", Config{LocalCachePages: 64, CTSRegionID: raw.CTSRegionID()}, true, "rwx")
	if _, err := ro.BeginRO(); !errors.Is(err, txn.ErrViewUnpublished) {
		t.Fatalf("BeginRO against an unpublished region: err = %v, want ErrViewUnpublished", err)
	}
}

// TestROSnapshotStableUnderCommits is the non-repeatable read the
// published view must exclude. Each of two writers moves value between
// its own two rows in one transaction, over and over; RO transactions read
// all four rows, twice each, under one view. The view lists only
// transactions that own an undo slot. While one writer sits between its
// commit timestamp and its CTS-log entry (it waits for the redo flush
// there), the other's publishes carry timestamps past that commit
// timestamp, and the list is all that keeps the first read (CTS log:
// uncommitted) and the second (CTS log: committed below cts_read) from
// disagreeing.
func TestROSnapshotStableUnderCommits(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	const total, writers = 1000, 2
	put := func(tx *Txn, key, v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return tx.Put(tbl, key, b[:])
	}
	seed, _ := h.rw.Begin()
	for w := uint64(0); w < writers; w++ {
		if err := put(seed, 2*w, total); err != nil {
			t.Fatal(err)
		}
		if err := put(seed, 2*w+1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for a := uint64(0); ; a = (a + 7) % (total + 1) {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := h.rw.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if err := put(tx, 2*w, a); err == nil {
					err = put(tx, 2*w+1, total-a)
				}
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(w)
	}
	readAll := func(tx *Txn) (vals [2 * writers]uint64) {
		for key := range vals {
			v, ok, err := tx.Get(roTbl, uint64(key))
			if err != nil || !ok || len(v) != 8 {
				t.Fatalf("ro get %d: %v %v %v", key, v, ok, err)
			}
			vals[key] = binary.LittleEndian.Uint64(v)
		}
		return vals
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	views := 0
	for time.Now().Before(deadline) && !t.Failed() {
		tx, err := ro.BeginRO()
		if err != nil {
			t.Fatal(err)
		}
		first := readAll(tx)
		second := readAll(tx)
		_ = tx.Commit()
		for w := 0; w < writers; w++ {
			if first[2*w]+first[2*w+1] != total {
				t.Fatalf("view %d saw half of writer %d's transaction: %d + %d != %d", views, w, first[2*w], first[2*w+1], total)
			}
		}
		if first != second {
			t.Fatalf("view %d: non-repeatable read: %v then %v", views, first, second)
		}
		views++
	}
	close(stop)
	wg.Wait()
	if views < 10 {
		t.Fatalf("only %d views taken", views)
	}
}

// TestStaleSMOClockRefreshesOnConflict: an RO traversal uses the SMO clock
// its node last saw, without reading the RW's. When splits have stamped
// pages since, the first attempt conflicts, the retry reads the clock and
// the row is found — one clock read, not one per traversal.
func TestStaleSMOClockRefreshesOnConflict(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 0, "first")
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")
	tx, err := ro.BeginRO() // the clock is as of here
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k < 400; k++ { // root and leaf splits
		mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
	}
	before := ro.EP().Metrics().Snapshot()
	if v, ok, err := tx.Get(roTbl, 0); err != nil || !ok || string(v) != "first" {
		t.Fatalf("get under a stale clock: %q %v %v", v, ok, err)
	}
	d := ro.EP().Metrics().Snapshot().Sub(before)
	if n := d.Counter("txn.cts.read_lsn.ops"); n != 1 {
		t.Fatalf("%d clock reads for one conflicting get, want 1", n)
	}
	before = ro.EP().Metrics().Snapshot()
	if _, _, err := tx.Get(roTbl, 0); err != nil {
		t.Fatal(err)
	}
	if n := ro.EP().Metrics().Snapshot().Sub(before).Counter("txn.cts.read_lsn.ops"); n != 0 {
		t.Fatalf("%d clock reads for a get under a current clock, want 0", n)
	}
	_ = tx.Commit()
}

// TestROLeasesStayBounded: the RW forgets leases as they expire, whether
// or not anything ever asks for the purge horizon.
func TestROLeasesStayBounded(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	const leases, step = 10000, 10 * time.Millisecond // 100 s of leases against a 10 s window
	start := time.Now()
	for i := 0; i < leases; i++ {
		h.rw.noteROLease(types.Timestamp(i+1), start.Add(time.Duration(i)*step))
	}
	h.rw.roViewsMu.Lock()
	live := len(h.rw.roLeases)
	h.rw.roViewsMu.Unlock()
	if want := int(roLeaseWindow / step); live > want {
		t.Fatalf("%d leases retained after %d, want at most the %d of one window", live, leases, want)
	}
}

// TestROLeaseHoldsPurgeHorizon: the lease an RO node takes out with its
// first view keeps the RW from purging what that view can still see.
func TestROLeaseHoldsPurgeHorizon(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 1, "v")
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")
	old, err := ro.BeginRO()
	if err != nil {
		t.Fatal(err)
	}
	del, _ := h.rw.Begin()
	if err := del.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	waitBackfilled(t, tbl, []uint64{1}) // purge only takes tombstones whose cts is in place
	if purged, err := h.rw.PurgeTombstones(tbl); err != nil || purged != 0 {
		t.Fatalf("purge ran under an RO node's lease: purged=%d err=%v", purged, err)
	}
	if got, ok := roGetTx(t, old, roTbl, 1); !ok || got != "v" {
		t.Fatalf("RO snapshot lost its version: %q %v", got, ok)
	}
}
