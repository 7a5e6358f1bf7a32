package engine

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"polardb/internal/btree"
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
	if err := newRW.Recover("rw", false); err != nil {
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
	if err := newRW.Recover("rw", false); err == nil {
		t.Fatal("recovery succeeded with the pool's home unreachable")
	}
}
