package engine

import (
	"errors"
	"strings"
	"testing"

	"polardb/internal/btree"
	"polardb/internal/cache"
	"polardb/internal/rdma"
	"polardb/internal/types"
)

// TestRORefreshIsOneRoundTrip: an RO refreshing a page the RW holds dirty
// probes the PIB once and gets the page in the eng.flushpage reply; it
// does not probe again or read the pool.
func TestRORefreshIsOneRoundTrip(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1, "v1")
	ro := h.addRO(btree.Optimistic)
	rtbl := mustOpen(t, ro, "t")
	if v, ok := roGet(t, ro, rtbl, 1); !ok || v != "v1" {
		t.Fatalf("RO read %q %v, want v1", v, ok)
	}
	mustCommitPut(t, h.rw, tbl, 1, "v2") // the root leaf: dirty on the RW, stale in the pool

	roBefore, rwBefore := ro.EP().Metrics().Snapshot(), h.rw.EP().Metrics().Snapshot()
	f, err := ro.Fetch(types.PageID{Space: tbl.Space, No: 1})
	if err != nil {
		t.Fatal(err)
	}
	ro.Unpin(f)
	d := ro.EP().Metrics().Snapshot().Sub(roBefore)
	served := h.rw.EP().Metrics().Snapshot().Sub(rwBefore).Counter("engine.flush.served")
	if p, r := d.Counter("rmem.pib_check.ops"), d.Counter("rmem.page_read.ops"); p != 1 || served != 1 || r != 0 {
		t.Fatalf("refresh cost %d PIB probes, %d eng.flushpage and %d pool reads; want 1, 1 and 0", p, served, r)
	}
	if v, ok := roGet(t, ro, rtbl, 1); !ok || v != "v2" {
		t.Fatalf("RO read %q %v after the refresh, want v2", v, ok)
	}
}

// TestMalformedFlushPageReplyFails: a reply that is neither a page nor
// empty fails the fill; it does not read as "storage is current", which
// here it is not (the shipper is parked, so storage lags the RW).
func TestMalformedFlushPageReplyFails(t *testing.T) {
	parkShipTick(t)
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1, "v1")
	ro := h.addRO(btree.Optimistic)
	rtbl := mustOpen(t, ro, "t")
	if v, ok := roGet(t, ro, rtbl, 1); !ok || v != "v1" {
		t.Fatalf("RO read %q %v, want v1", v, ok)
	}
	tx, err := h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Rollback() }()
	if err := tx.Put(tbl, 1, []byte("v2")); err != nil { // redo not shipped: nothing commits
		t.Fatal(err)
	}
	h.rw.EP().RegisterHandler("eng.flushpage", func(rdma.NodeID, []byte) ([]byte, error) {
		return []byte{1, 2, 3}, nil
	})
	f, err := ro.Fetch(types.PageID{Space: tbl.Space, No: 1})
	if err == nil {
		lsn := f.NewestLSN
		ro.Unpin(f)
		t.Fatalf("fetch after a 3-byte eng.flushpage reply returned an image at LSN %d; want ErrStalePage", lsn)
	}
	if !errors.Is(err, ErrStalePage) {
		t.Fatalf("fetch after a 3-byte eng.flushpage reply: %v; want ErrStalePage", err)
	}
}

// TestROReFetchOfAHeldPageIsOneSided: a page an RO evicted locally stays
// registered, idle, so fetching it again is a PIB probe and one one-sided
// page read: no page_register, no RPC at all, however many pages went
// idle before it.
func TestROReFetchOfAHeldPageIsOneSided(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(strings.Repeat("x", 200))
	const rows = 1000
	for k := uint64(0); k < rows; k += 100 {
		tx, err := h.rw.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := k; i < k+100; i++ {
			if err := tx.Put(tbl, i, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint64, rows)
	for k := range keys {
		keys[k] = uint64(k)
	}
	waitBackfilled(t, tbl, keys) // the last writes to the table's pages
	h.rw.Cache().EvictAll()      // written back: every pool copy is fresh
	ro := h.addRO(btree.Optimistic)
	rtbl := mustOpen(t, ro, "t")
	for k := uint64(0); k < rows; k += 7 {
		if _, ok := roGet(t, ro, rtbl, k); !ok {
			t.Fatalf("RO misses row %d", k)
		}
	}
	var pages []types.PageID
	ro.Cache().ForEach(func(f *cache.Frame) { pages = append(pages, f.ID) })
	ro.Cache().EvictAll()
	if len(pages) <= 2*16 {
		t.Fatalf("the RO held only %d pages; the test wants more than two unregister batches' worth", len(pages))
	}

	before := ro.EP().Metrics().Snapshot()
	for _, id := range pages {
		f, err := ro.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		ro.Unpin(f)
	}
	d := ro.EP().Metrics().Snapshot().Sub(before)
	n := uint64(len(pages))
	if rpcs, regs := d.Counter("rdma.rpc.ops"), d.Counter("rmem.register.ops"); rpcs != 0 || regs != 0 {
		t.Fatalf("re-fetching %d held pages cost %d RPCs, %d of them page_register; want 0", n, rpcs, regs)
	}
	if probes, reads := d.Counter("rmem.pib_check.ops"), d.Counter("rmem.page_read.ops"); probes != n || reads != n {
		t.Fatalf("re-fetching %d held pages: %d PIB probes and %d page reads, want one each per page", n, probes, reads)
	}
}
