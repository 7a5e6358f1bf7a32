package engine

import (
	"errors"
	"testing"

	"polardb/internal/btree"
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
