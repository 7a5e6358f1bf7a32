package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"polardb/internal/btree"
	"polardb/internal/stat"
	"polardb/internal/txn"
	"polardb/internal/types"
)

func freshPayload(k uint64) []byte {
	return append([]byte(fmt.Sprintf("row-%05d-", k)), bytes.Repeat([]byte{'x'}, 90)...)
}

// insertRows commits rows [from, to) in transactions of 50.
func insertRows(t *testing.T, e *Engine, tbl *Table, from, to uint64) {
	t.Helper()
	for k := from; k < to; {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for end := k + 50; k < end && k < to; k++ {
			if err := tx.Insert(tbl, k, freshPayload(k)); err != nil {
				t.Fatalf("insert %d: %v", k, err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func checkRows(t *testing.T, e *Engine, tbl *Table, from, to uint64) {
	t.Helper()
	tx, err := e.BeginRO()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Commit() }()
	for k := from; k < to; k++ {
		v, ok, err := tx.Get(tbl, k)
		if err != nil || !ok || !bytes.Equal(v, freshPayload(k)) {
			t.Fatalf("%s: row %d = %q, found %v, err %v", e.EP().ID(), k, v, ok, err)
		}
	}
}

func undoCursorPage(t *testing.T, e *Engine) types.PageNo {
	t.Helper()
	f, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unpin()
	f.Latch.RLock()
	defer f.Latch.RUnlock()
	pg, _ := txn.UndoAlloc(f.Data)
	return pg
}

// insertUntilUndoRolls inserts rows from *next on until the undo cursor
// has moved onto a new page, and returns what the node's registry counted
// meanwhile.
func insertUntilUndoRolls(t *testing.T, e *Engine, tbl *Table, next *uint64) stat.Snapshot {
	t.Helper()
	before := e.EP().Metrics().Snapshot()
	for pg := undoCursorPage(t, e); undoCursorPage(t, e) == pg; *next += 10 {
		insertRows(t, e, tbl, *next, *next+10)
	}
	return e.EP().Metrics().Snapshot().Sub(before)
}

// waitWarmed returns once none of e's warm workers is running, such as
// those recovery starts for the pages its takeover purged.
func waitWarmed(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.warmMu.Lock()
		n := e.warmers
		e.warmMu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d warm workers still running", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocatedPagesAreBornInMemory: on a warm RW whose working set fits
// the local cache, creating a table or an index, and inserts that split
// leaves and roll the undo page, read
// nothing from storage — every allocated page is created in memory — and
// the rows on those pages, which were never written back anywhere, are
// readable from an RO (through eng.flushpage) and from the node promoted
// after a crash (storage materializes their redo over a zero base).
func TestAllocatedPagesAreBornInMemory(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 2048, cachePages: 1024})
	created := h.rw.EP().Metrics().Snapshot()
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.rw.CreateIndex(tbl, "by_x"); err != nil {
		t.Fatal(err)
	}
	// The new spaces' header and root pages are born in memory too: their
	// space id was allocated by the MTR that formats them.
	if d := h.rw.EP().Metrics().Snapshot().Sub(created); d.Counter("engine.page.storage_read") != 0 || d.Counter("pfs.get_page.ops") != 0 || d.Counter("engine.page.fresh") != 4 {
		t.Fatalf("creating a table and an index: engine.page.storage_read +%d, pfs.get_page.ops +%d, engine.page.fresh +%d; want 0, 0 and 4",
			d.Counter("engine.page.storage_read"), d.Counter("pfs.get_page.ops"), d.Counter("engine.page.fresh"))
	}
	insertRows(t, h.rw, tbl, 0, 100) // warm: undo header and cursor page
	startUndo := undoCursorPage(t, h.rw)

	before := h.rw.EP().Metrics().Snapshot()
	insertRows(t, h.rw, tbl, 100, 2100)
	d := h.rw.EP().Metrics().Snapshot().Sub(before)
	if rolled := undoCursorPage(t, h.rw) - startUndo; rolled < 3 {
		t.Fatalf("undo cursor rolled %d pages; the test needs several", rolled)
	}
	if n := d.Counter("engine.page.fresh"); n < 20 {
		t.Fatalf("engine.page.fresh = %d after 2000 inserts", n)
	}
	if sr, gp := d.Counter("engine.page.storage_read"), d.Counter("pfs.get_page.ops"); sr != 0 || gp != 0 {
		t.Fatalf("allocation read storage: engine.page.storage_read +%d, pfs.get_page.ops +%d (engine.page.fresh +%d)",
			sr, gp, d.Counter("engine.page.fresh"))
	}
	if rr := d.Counter("engine.page.remote_read"); rr != 0 {
		t.Fatalf("allocation read remote memory: engine.page.remote_read +%d", rr)
	}

	// (b) An RO's first fetch of such a page finds it PIB-stale and asks
	// the RW for the page.
	ro := h.addRO(btree.Optimistic)
	served := h.rw.EP().Metrics().Snapshot()
	checkRows(t, ro, mustOpen(t, ro, "t"), 0, 2100)
	if n := h.rw.EP().Metrics().Snapshot().Sub(served).Counter("engine.flush.served"); n == 0 {
		t.Fatal("the RO read 2100 rows off fresh pages without one eng.flushpage")
	}

	// (c) Crash right after more inserts: nothing but redo ever left the node.
	insertRows(t, h.rw, tbl, 2100, 2600)
	// ... and a table whose creating MTRs may or may not have become
	// durable: its space id's MTR precedes its two pages' in the redo, so
	// the new RW finds the table, or hands out that id again over nothing,
	// or never hands it out again.
	if _, err := h.rw.CreateTable("maybe"); err != nil {
		t.Fatal(err)
	}
	h.rw.EP().Kill()
	h.rw.Close()
	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 1024}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatalf("recover: %v", err)
	}
	tbl2 := mustOpen(t, newRW, "t")
	checkRows(t, newRW, tbl2, 0, 2600) // also warms the new RW's cache
	waitWarmed(t, newRW)               // the recovery warm-up's storage reads are not the roll-overs'

	// The recovered undo cursor is past every undo record (its writes are
	// logged in the order they were made), so no roll-over after recovery
	// reads its page, the first one included.
	next := uint64(2600)
	insertRows(t, newRW, tbl2, next, next+10) // warm the undo header and cursor page
	next += 10
	hdr, err := newRW.Fetch(types.PageID{Space: tbl2.Space, No: 0}) // and the allocator's page
	if err != nil {
		t.Fatal(err)
	}
	newRW.Unpin(hdr)
	if d := insertUntilUndoRolls(t, newRW, tbl2, &next); d.Counter("engine.page.storage_read") != 0 {
		t.Fatalf("first roll-over after recovery: engine.page.storage_read +%d, want 0", d.Counter("engine.page.storage_read"))
	}
	if d := insertUntilUndoRolls(t, newRW, tbl2, &next); d.Counter("engine.page.storage_read") != 0 {
		t.Fatalf("second roll-over after recovery: engine.page.storage_read +%d, want 0", d.Counter("engine.page.storage_read"))
	}
	checkRows(t, newRW, tbl2, 2600, next)

	after, err := newRW.CreateTable("after")
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, newRW, after, 0, 200)
	checkRows(t, newRW, after, 0, 200)
	if maybe, err := newRW.OpenTable("maybe"); err == nil {
		if maybe.Space == after.Space {
			t.Fatalf("tables maybe and after share space %d", after.Space)
		}
		insertRows(t, newRW, maybe, 0, 50)
		checkRows(t, newRW, maybe, 0, 50)
	} else if !errors.Is(err, ErrNoSuchTable) {
		t.Fatal(err)
	}
}

// TestFetchNewContract: RW only, and a page that is cached comes back as
// it is.
func TestFetchNewContract(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	mustCommitPut(t, h.rw, tbl, 1, "x")
	root := types.PageID{Space: tbl.Space, No: 1}

	f, err := h.rw.Fetch(root)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), f.Data...)
	h.rw.Unpin(f)
	g, err := h.rw.FetchNew(root)
	if err != nil {
		t.Fatal(err)
	}
	if g != f || !bytes.Equal(g.Data, want) {
		t.Fatal("FetchNew replaced a cached page")
	}
	h.rw.Unpin(g)

	ro := h.addRO(btree.Optimistic)
	if _, err := ro.FetchNew(types.PageID{Space: tbl.Space, No: 99}); !errors.Is(err, ErrNotRW) {
		t.Fatalf("FetchNew on an RO: err = %v, want ErrNotRW", err)
	}
}
