package engine

import (
	"bytes"
	"testing"
	"time"
)

// parkShipTick stretches the shipper's idle tick past the test, so redo
// ships only when something nudges the shipper. Call it before the
// harness starts its engines.
func parkShipTick(t *testing.T) {
	old := shipInterval
	shipInterval = time.Hour
	t.Cleanup(func() { shipInterval = old })
}

// shipIdle ships everything appended so far and returns once no nudge is
// pending: the shipper's next round starts only when the test's own
// traffic asks for one.
func shipIdle(t *testing.T, e *Engine) {
	t.Helper()
	e.WaitAllShipped()
	deadline := time.Now().Add(5 * time.Second)
	for len(e.nudge) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("shipper never took its nudge")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let the round the nudge started drain nothing
}

func counter(e *Engine, name string) uint64 {
	return e.EP().Metrics().Snapshot().Counter(name)
}

// TestWriteTxnIsOneRedoAppend: statement MTRs do not ship their redo; the
// commit wait does, so a transaction of N statements reaches the log
// chunk in one append.
func TestWriteTxnIsOneRedoAppend(t *testing.T) {
	parkShipTick(t)
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	shipIdle(t, h.rw)
	appends := counter(h.rw, "pfs.append_redo.ops")
	tx, err := h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 6; k++ {
		if err := tx.Put(tbl, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := counter(h.rw, "pfs.append_redo.ops") - appends; n != 1 {
		t.Fatalf("a 6-statement transaction made %d redo appends, want 1", n)
	}
}

// TestBulkTxnShipsInSlices: a transaction that logs far more than the
// fill constant does not wait for its commit to ship; the buffer never
// holds more than two fills plus the MTR just appended.
func TestBulkTxnShipsInSlices(t *testing.T) {
	parkShipTick(t)
	h := newHarness(t, harnessOpts{cachePages: 1024, poolPages: 2048})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	batches := counter(h.rw, "engine.redo.flush.batches")
	tx, err := h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	const rows = 5000
	for k := uint64(0); k < rows; k++ {
		before := h.rw.buf.CurrentLSN()
		if err := tx.Insert(tbl, k, []byte("row")); err != nil {
			t.Fatal(err)
		}
		mtr := int(h.rw.buf.CurrentLSN() - before)
		if p := h.rw.buf.Pending(); p-mtr >= 2*redoFillRecords {
			t.Fatalf("row %d: %d records buffered, %d of them before this MTR (fill %d)", k, p, p-mtr, redoFillRecords)
		}
	}
	if n := counter(h.rw, "engine.redo.flush.batches") - batches; n < 2 {
		t.Fatalf("%d-row transaction shipped in %d batches before its commit", rows, n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitIsOneBackfillMTR: the commit-timestamp backfill patches all of
// a transaction's records in one mini-transaction, so a commit of N
// statements costs N + 2 MTRs (statements, commit, backfill).
func TestCommitIsOneBackfillMTR(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	mtrs := counter(h.rw, "engine.mtr.commit")
	tx, err := h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(100 * i) // spread over the key space
		if err := tx.Put(tbl, keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitBackfilled(t, tbl, keys)
	// The patches land before their MTR commits; give it time to count
	// (and a second backfill MTR time to show up).
	deadline := time.Now().Add(5 * time.Second)
	for counter(h.rw, "engine.mtr.commit")-mtrs < n+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := counter(h.rw, "engine.mtr.commit") - mtrs; got != n+2 {
		t.Fatalf("a %d-statement commit made %d MTRs, want %d", n, got, n+2)
	}
}

// TestOneRowUpdateLogsUnderAKiB: a transaction that overwrites one
// 96-byte row on a half-full leaf appends less than 1 KiB of redo, its
// statement, commit and backfill MTRs together: each page logs the ranges
// the update wrote, not the span between them.
func TestOneRowUpdateLogsUnderAKiB(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// waitMTRs returns once n MTRs have committed since the count was at
	// from: a backfill MTR counts after its patches are visible.
	waitMTRs := func(from, n uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for counter(h.rw, "engine.mtr.commit")-from < n {
			if time.Now().After(deadline) {
				t.Fatalf("fewer than %d MTRs committed", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	const rows = 16 // with the record headers, about half a leaf
	mtrs := counter(h.rw, "engine.mtr.commit")
	tx, err := h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < rows; k++ {
		if err := tx.Insert(tbl, k, bytes.Repeat([]byte{'r'}, 96)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitMTRs(mtrs, rows+2) // statements, commit, backfill

	mtrs, redo := counter(h.rw, "engine.mtr.commit"), counter(h.rw, "plog.append.bytes")
	tx, err = h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(tbl, 8, bytes.Repeat([]byte{'u'}, 96)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	waitMTRs(mtrs, 3)
	if n := counter(h.rw, "plog.append.bytes") - redo; n >= 1024 {
		t.Fatalf("a one-row update appended %d bytes of redo, want < 1024", n)
	}
}

// TestDirtyEvictionShipsWithoutTick: evicting a frame whose redo is still
// in the log buffer nudges the shipper; it does not wait for the idle
// tick (parked here for the length of the test).
func TestDirtyEvictionShipsWithoutTick(t *testing.T) {
	parkShipTick(t)
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(tbl, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if h.rw.buf.Pending() == 0 {
		t.Fatal("the statement's redo shipped before anything waited for it")
	}
	done := make(chan struct{})
	go func() {
		h.rw.Cache().EvictAll()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dirty eviction waited for the idle tick")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, ok := roGet(t, h.rw, tbl, 1); !ok || got != "v" {
		t.Fatalf("row after eviction and commit: %q %v", got, ok)
	}
}
