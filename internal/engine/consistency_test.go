package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"polardb/internal/btree"
)

// TestCrossNodeConsistencyOracle runs random committed operations on the
// RW while checking, after each commit, that an RO snapshot agrees with a
// local oracle map — the cross-node "read after write should not miss any
// updates" guarantee of §3 (cache invalidation + CTS log).
func TestCrossNodeConsistencyOracle(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 1024, cachePages: 64})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")

	oracle := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		k := uint64(rng.Intn(100))
		switch rng.Intn(3) {
		case 0:
			v := []byte(fmt.Sprintf("v%d-%d", k, i))
			tx, _ := h.rw.Begin()
			if err := tx.Put(tbl, k, v); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case 1:
			tx, _ := h.rw.Begin()
			err := tx.Delete(tbl, k)
			if _, had := oracle[k]; had {
				if err != nil {
					t.Fatalf("delete %d: %v", k, err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				delete(oracle, k)
			} else {
				_ = tx.Rollback()
			}
		case 2:
			// RO read-after-write: must match the oracle exactly.
			roTx, err := ro.BeginRO()
			if err != nil {
				t.Fatal(err)
			}
			v, ok, err := roTx.Get(roTbl, k)
			if err != nil {
				t.Fatalf("ro get %d: %v", k, err)
			}
			want, had := oracle[k]
			if ok != had || (had && !bytes.Equal(v, want)) {
				t.Fatalf("iteration %d key %d: RO saw (%q,%v), oracle (%q,%v)", i, k, v, ok, want, had)
			}
		}
	}
	// Final full comparison via RO scan.
	roTx, _ := ro.BeginRO()
	got := map[uint64][]byte{}
	if err := roTx.Scan(roTbl, 0, ^uint64(0), func(k uint64, v []byte) bool {
		got[k] = append([]byte(nil), v...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oracle) {
		t.Fatalf("RO scan rows = %d, oracle = %d", len(got), len(oracle))
	}
	for k, v := range oracle {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %d: RO %q oracle %q", k, got[k], v)
		}
	}
}

// TestConcurrentRWWithROReaders runs writers and RO readers concurrently;
// RO readers must always see internally consistent rows (a value written
// entirely by one committed transaction) and never an error.
func TestConcurrentRWWithROReaders(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 2048, cachePages: 128})
	tbl, _ := h.rw.CreateTable("t")
	// Seed rows whose payload encodes a self-consistent generation.
	payload := func(k, gen uint64) []byte {
		half := fmt.Sprintf("key=%d;gen=%d;", k, gen)
		return []byte(half + half) // identical halves: torn reads detectable
	}
	for k := uint64(0); k < 50; k++ {
		mustCommitPut(t, h.rw, tbl, k, string(payload(k, 0)))
	}
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			gen := uint64(1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(50))
				tx, err := h.rw.Begin()
				if err != nil {
					continue
				}
				if err := tx.Put(tbl, k, payload(k, gen)); err != nil {
					_ = tx.Rollback()
					continue
				}
				_ = tx.Commit()
				gen++
			}
		}(int64(w))
	}
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		roTx, err := ro.BeginRO()
		if err != nil {
			t.Fatal(err)
		}
		k := uint64(rand.Intn(50))
		v, ok, err := roTx.Get(roTbl, k)
		if err != nil {
			t.Fatalf("ro get: %v", err)
		}
		if !ok {
			t.Fatalf("seeded key %d missing", k)
		}
		// Torn-read check: both halves of the payload must agree.
		half := len(v) / 2
		if !bytes.Equal(v[:half], v[half:]) {
			t.Fatalf("torn row on RO: %q", v)
		}
	}
	close(stop)
	wg.Wait()
}

func roGetTx(t *testing.T, tx *Txn, tbl *Table, key uint64) (string, bool) {
	t.Helper()
	v, ok, err := tx.Get(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

// TestPurgeTombstones verifies delete-marked records are physically
// removed once no snapshot can see them, and never before.
func TestPurgeTombstones(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(0); k < 30; k++ {
		mustCommitPut(t, h.rw, tbl, k, "v")
	}
	// An old snapshot holds the horizon back.
	oldSnap, _ := h.rw.BeginRO()
	del, _ := h.rw.Begin()
	for k := uint64(0); k < 30; k += 2 {
		if err := del.Delete(tbl, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	waitBackfilled(t, tbl, []uint64{0})
	// While the old snapshot is open, its version chain must survive:
	// purge is held back by the read-view horizon.
	if purged, err := h.rw.PurgeTombstones(tbl); err != nil || purged != 0 {
		t.Fatalf("purge ran under an open snapshot: purged=%d err=%v", purged, err)
	}
	if got, ok := roGetTx(t, oldSnap, tbl, 0); !ok || got != "v" {
		t.Fatalf("old snapshot lost its version: %q %v", got, ok)
	}
	_ = oldSnap.Commit() // release the snapshot; the horizon advances
	purged, err := h.rw.PurgeTombstones(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if purged == 0 {
		t.Fatal("nothing purged")
	}
	// Purged keys are physically gone from the tree.
	if _, err := tbl.Primary.Get(0, btree.Local); err == nil {
		t.Fatal("tombstone still physically present")
	}
	// Live keys untouched.
	for k := uint64(1); k < 30; k += 2 {
		if got, ok := roGet(t, h.rw, tbl, k); !ok || got != "v" {
			t.Fatalf("live key %d damaged: %q %v", k, got, ok)
		}
	}
	// Deleted keys read as absent.
	if _, ok := roGet(t, h.rw, tbl, 2); ok {
		t.Fatal("deleted key visible after purge")
	}
}

// TestBeginBeforeBootstrap ensures a not-yet-bootstrapped RW refuses
// transactions instead of corrupting an empty volume.
func TestBeginBeforeBootstrap(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	raw := h.newEngine(t, "rwx", Config{LocalCachePages: 64}, false, "")
	if _, err := raw.Begin(); err == nil {
		t.Fatal("Begin succeeded before Bootstrap/Recover")
	}
}

// TestSlabNodeFailureAtEngineLevel kills the slab node holding every
// cached page; reads must transparently fall back to storage and the
// system keeps serving (§5.2).
func TestSlabNodeFailureAtEngineLevel(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 512, cachePages: 64})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(0); k < 200; k++ {
		mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
	}
	h.rw.WaitAllShipped()
	// The single memory node ("mem0") is both home and slab node here; a
	// real deployment separates them. Simulate slab loss by having the
	// home drop all pages on mem0's slabs, as it would after detecting a
	// slab node failure.
	h.home.HandleSlabFailure("mem0")
	// Every read must still work (from local cache or storage).
	for k := uint64(0); k < 200; k += 11 {
		v, ok := roGet(t, h.rw, tbl, k)
		if !ok || v != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d after slab failure: %q %v", k, v, ok)
		}
	}
	// Writes continue too.
	mustCommitPut(t, h.rw, tbl, 999, "post-slab-failure")
	if v, ok := roGet(t, h.rw, tbl, 999); !ok || v != "post-slab-failure" {
		t.Fatalf("write after slab failure: %q %v", v, ok)
	}
}

// TestResizeLocalCacheLive shrinks and grows the local cache under
// traffic, verifying capacity takes effect and nothing is lost.
func TestResizeLocalCacheLive(t *testing.T) {
	h := newHarness(t, harnessOpts{cachePages: 256})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(0); k < 300; k++ {
		mustCommitPut(t, h.rw, tbl, k, "v")
	}
	if err := h.rw.ResizeLocalCache(16); err != nil {
		t.Fatal(err)
	}
	if got := h.rw.Cache().Stats().Capacity; got != 16 {
		t.Fatalf("capacity = %d", got)
	}
	for k := uint64(0); k < 300; k += 13 {
		if _, ok := roGet(t, h.rw, tbl, k); !ok {
			t.Fatalf("key %d lost after shrink", k)
		}
	}
	if err := h.rw.ResizeLocalCache(512); err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1000, "after-grow")
}
