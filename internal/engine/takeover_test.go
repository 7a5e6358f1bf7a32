package engine

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"polardb/internal/btree"
	"polardb/internal/rdma"
	"polardb/internal/rmem"
	"polardb/internal/types"
)

// TestRecoveryPurgesPagesAheadOfTail: a pooled page whose PIB is fresh but
// whose image is newer than the durable redo — what an RW leaves behind
// when it writes a page back for an RO before the page's redo is flushed —
// is purged by recovery step 5 and fetched again from storage, so the row
// on it reads back at its durable value, not at the planted one.
func TestRecoveryPurgesPagesAheadOfTail(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 2048, cachePages: 512})
	tbl, _ := h.rw.CreateTable("t")
	insertRows(t, h.rw, tbl, 0, 600)
	h.rw.WaitAllShipped()
	const key = 300
	leaves, err := tbl.Primary.Leaves([]uint64{key}, btree.Local)
	if err != nil || len(leaves) != 1 {
		t.Fatalf("leaf of row %d: %v, %v", key, leaves, err)
	}
	leaf := leaves[0]
	f := h.rw.Cache().Get(leaf)
	if f == nil {
		t.Fatalf("%s is not cached on the RW", leaf)
	}
	f.Latch.RLock()
	img := bytes.Clone(f.Data)
	f.Latch.RUnlock()
	f.Unpin()
	h.rw.EP().Kill()
	h.rw.Close()

	// The planted image: the same leaf, the row's value changed, stamped
	// with an LSN no redo reaches, written with page_write (PIB fresh).
	at := bytes.Index(img, freshPayload(key))
	if at < 0 {
		t.Fatalf("row %d is not on %s", key, leaf)
	}
	img[at] = 'R'
	const planted = types.LSN(1 << 60)
	binary.LittleEndian.PutUint64(img, uint64(planted))
	planterEP := h.fabric.MustAttach("planter")
	planter, err := rmem.NewPool(planterEP, h.memCfg, "mem0")
	if err != nil {
		t.Fatal(err)
	}
	res, err := planter.Register(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if err := planter.WritePage(res.Data, img, res.PIB); err != nil {
		t.Fatal(err)
	}
	if stale, err := planter.PIBStale(res.PIB); err != nil || stale {
		t.Fatalf("planted page PIB stale=%v err=%v, want fresh", stale, err)
	}

	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 512}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatal(err)
	}
	if n := planterEP.Metrics().Snapshot().Counter("rmem.slabfail.pages"); n != 1 {
		t.Fatalf("the planted page's holder was told of %d purged pages, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := newRW.Cache().Get(leaf); f != nil {
			f.Unpin()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s, purged by recovery, is not in the new RW's cache 5 s later", leaf)
		}
		time.Sleep(time.Millisecond)
	}
	var hdr [8]byte
	for _, en := range h.home.Scan() {
		if en.Page != leaf {
			continue
		}
		if err := planter.ReadPage(en.Data, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if types.LSN(binary.LittleEndian.Uint64(hdr[:])) == planted {
			t.Fatalf("the pool still maps the planted image of %s", leaf)
		}
	}
	checkRows(t, newRW, mustOpen(t, newRW, "t"), 0, 600)
}

// TestRecoverFailsWithoutHome: when the takeover cannot reach the pool's
// home, recovery fails instead of serving over a pool it did not purge.
func TestRecoverFailsWithoutHome(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 1024})
	tbl, _ := h.rw.CreateTable("t")
	insertRows(t, h.rw, tbl, 0, 50)
	h.rw.EP().Kill()
	h.rw.Close()
	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 256}, false, "")
	h.home.Endpoint().Kill()
	if _, err := newRW.Recover("rw", false); err == nil {
		t.Fatal("recovery succeeded with the pool's home unreachable")
	}
}

// TestRWKeepsItsCopyWhenThePoolPurges: when the pool takes a page's
// addresses away, the RW's cached copy stays what the RW reads. Here it
// holds bytes of an MTR whose redo has not shipped, so storage has none of
// them, and the slab under the page fails.
func TestRWKeepsItsCopyWhenThePoolPurges(t *testing.T) {
	parkShipTick(t)
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1, "row")
	leaf := types.PageID{Space: tbl.Primary.Space(), No: 1} // the root, a leaf while the table is small
	f, err := h.rw.Fetch(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.rw.pool.Lookup(leaf); !ok {
		t.Fatalf("%s is not registered with the pool; the test checks nothing", leaf)
	}
	mark := []byte("written by mtr")
	const off = 2048 // between the slot array and the cells
	mt := h.rw.BeginMtr()
	f.Latch.Lock()
	mt.LogWrite(f, off, mark) // the MTR holds the latch from here to its commit
	f.Unpin()
	if _, err := mt.Commit(); err != nil { // its redo stays in the log buffer: nothing waits for it
		t.Fatal(err)
	}
	h.home.HandleSlabFailure("mem0")
	g, err := h.rw.Fetch(leaf)
	if err != nil {
		t.Fatal(err)
	}
	g.Latch.RLock()
	got := bytes.Clone(g.Data[off : off+len(mark)])
	g.Latch.RUnlock()
	g.Unpin()
	_, registered := h.rw.pool.Lookup(leaf)
	if !bytes.Equal(got, mark) {
		t.Fatalf("the RW reads %q at %d after the purge, want its own %q", got, off, mark)
	}
	if registered {
		t.Fatal("the RW's copy still holds the purged registration")
	}
}

// TestROCopyIsReadAgainWhenThePoolPurges: when the pool takes a page's
// addresses away, an RO's cached copy reads invalid at once and its next
// fetch reads the page again without the purged addresses.
func TestROCopyIsReadAgainWhenThePoolPurges(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1, "row")
	ro := h.addRO(btree.Optimistic)
	rtbl := mustOpen(t, ro, "t")
	if v, ok := roGet(t, ro, rtbl, 1); !ok || v != "row" {
		t.Fatalf("RO read %q %v, want row", v, ok)
	}
	leaf := types.PageID{Space: tbl.Primary.Space(), No: 1}
	f, err := ro.Fetch(leaf)
	if err != nil {
		t.Fatal(err)
	}
	ro.Unpin(f)
	_, registered := ro.pool.Lookup(leaf)
	if !registered || !ro.cache.Probe(leaf) {
		t.Fatalf("the RO's copy of %s is not a valid registered one (registered %v); the test checks nothing", leaf, registered)
	}
	h.home.HandleSlabFailure("mem0")
	if ro.cache.Probe(leaf) {
		t.Fatal("the RO's copy reads valid after the pool purged its page")
	}
	g, err := ro.Fetch(leaf)
	if err != nil {
		t.Fatal(err)
	}
	ro.Unpin(g)
	_, registered = ro.pool.Lookup(leaf)
	if registered {
		t.Fatal("the RO's copy still holds the purged registration after its next fetch")
	}
}

// TestFillReadsAgainWhenThePoolPurgesUnderIt: a refresh whose page the
// pool purges while it reads reads the page once more, through a new
// registration: the first read may have hit a slot the home has since
// given to another page. Here the purge lands inside the RW's answer to
// the RO's first eng.flushpage, so the RO must ask twice.
func TestFillReadsAgainWhenThePoolPurgesUnderIt(t *testing.T) {
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
	rmem.NewSlabNode(h.fabric.MustAttach("mem1"))
	if _, err := h.home.AddSlab("mem1", 512); err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1, "v2") // the RO's copy of the leaf is stale now
	var asked atomic.Int32
	h.rw.EP().RegisterHandler("eng.flushpage", func(from rdma.NodeID, req []byte) ([]byte, error) {
		if asked.Add(1) == 1 {
			h.home.HandleSlabFailure("mem0")
		}
		return h.rw.handleFlushPage(from, req)
	})
	if v, ok := roGet(t, ro, rtbl, 1); !ok || v != "v2" {
		t.Fatalf("RO read %q %v after the purge, want v2", v, ok)
	}
	if n := asked.Load(); n != 2 {
		t.Fatalf("the RO asked the RW for the page %d times, want 2", n)
	}
}

// TestRWCopyIgnoresLateInvalidation: nothing the home sends outdates the
// RW's copy of a page. An invalidation from another writer, here a pool
// client standing in for the old RW of a promotion, leaves it valid.
func TestRWCopyIgnoresLateInvalidation(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1, "row")
	leaf := types.PageID{Space: tbl.Primary.Space(), No: 1}
	f, err := h.rw.Fetch(leaf)
	if err != nil {
		t.Fatal(err)
	}
	h.rw.Unpin(f)
	if _, ok := h.rw.pool.Lookup(leaf); !ok {
		t.Fatalf("%s is not registered with the pool; the test checks nothing", leaf)
	}
	old, err := rmem.NewPool(h.fabric.MustAttach("oldrw"), h.memCfg, "mem0")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.InvalidateBatch([]types.PageID{leaf}); err != nil {
		t.Fatal(err)
	}
	if f.Invalid() {
		t.Fatal("a late invalidation outdated the RW's own copy")
	}
}
