package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"polardb/internal/btree"
	"polardb/internal/cache"
	"polardb/internal/plog"
	"polardb/internal/polarfs"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// storageMismatches compares every page e caches with its newest PolarFS
// image, once the redo up to the page's LSN has shipped: the image must be
// no newer than that LSN (the page LSN is its last MTR's end, the image's
// the last record's) and hold the same bytes (bytes [0,8), the page LSN,
// aside).
func storageMismatches(t *testing.T, e *Engine) []string {
	t.Helper()
	var bad []string
	e.Cache().ForEach(func(f *cache.Frame) {
		f.Latch.RLock()
		defer f.Latch.RUnlock()
		if f.NewestLSN == 0 {
			return
		}
		if err := e.awaitShipper(plog.Shipped, f.NewestLSN); err != nil {
			t.Error(err)
			return
		}
		img, lsn, exists, err := e.pfs.GetPage(f.ID, polarfs.MaxLSN)
		if err != nil {
			t.Error(err)
			return
		}
		if !exists {
			img = make([]byte, types.PageSize)
		}
		differ := 0
		for i := 8; i < types.PageSize; i++ {
			if f.Data[i] != img[i] {
				differ++
			}
		}
		if lsn > f.NewestLSN || differ > 0 {
			bad = append(bad, fmt.Sprintf("%s: cached at LSN %d, storage at %d, %d bytes differ", f.ID, f.NewestLSN, lsn, differ))
		}
	})
	return bad
}

// TestRWPagesMatchStorageAtTheirLSN: writers and the commit-timestamp
// backfill write the leaves of one hot table side by side. Once they have
// stopped and the redo has shipped, every page the RW caches equals its
// PolarFS image at the page's own LSN. An MTR that let a page's latch go
// before its redo took an LSN could be logged after a later MTR that wrote
// the same bytes, and storage replayed the two in the opposite order.
func TestRWPagesMatchStorageAtTheirLSN(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("hot")
	if err != nil {
		t.Fatal(err)
	}
	const rows, writers, txns, rounds = 40, 8, 2, 250
	keys := make([]uint64, rows)
	for i := range keys {
		keys[i] = uint64(i)
	}
	insertRows(t, h.rw, tbl, 0, rows)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				for i := 0; i < txns; i++ {
					a, b := uint64(rng.Intn(rows)), uint64(rng.Intn(rows))
					if a > b {
						a, b = b, a // row locks in key order: no deadlock
					}
					tx, err := h.rw.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					for _, k := range []uint64{a, b} {
						if err := tx.Put(tbl, k, bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 10+rng.Intn(90))); err != nil {
							t.Error(err)
							_ = tx.Rollback()
							return
						}
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
				}
			}(rand.New(rand.NewSource(int64(round*writers + w))))
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		waitBackfilled(t, tbl, keys)
		if bad := storageMismatches(t, h.rw); len(bad) > 0 {
			t.Fatalf("round %d: %d cached pages differ from storage at their LSN:\n%v", round, len(bad), bad)
		}
	}
}

// TestRecoveredUndoCursorIsPastEveryRecord: two MTRs append undo records
// one after the other, and the first commits last. The RW crashes once
// both are durable. The undo cursor recovery reads from the header must be
// past both records; had the cursor writes been logged in commit order,
// not in the order they were made, it would point into the second one,
// and the next append would overwrite it.
func TestRecoveredUndoCursorIsPastEveryRecord(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	e := h.rw
	rec := func(trx types.TrxID) *txn.UndoRec {
		return &txn.UndoRec{Trx: trx, Space: FirstUserSpace, Key: uint64(trx), Type: txn.UndoUpdate, PrevBytes: []byte("previous version")}
	}
	type placed struct {
		pg  types.PageNo
		off uint16
		n   int
	}
	var first, second placed
	ua, ub := rec(1001), rec(1002)
	mtA := e.BeginMtr()
	pg, off, err := e.appendUndo(mtA, ua)
	if err != nil {
		t.Fatal(err)
	}
	first = placed{pg, off, ua.EncodedSize()}
	done := make(chan error, 1)
	go func() {
		mtB := e.BeginMtr()
		pg, off, err := e.appendUndo(mtB, ub)
		second = placed{pg, off, ub.EncodedSize()}
		if _, cerr := mtB.Commit(); err == nil {
			err = cerr
		}
		done <- err
	}()
	// The second append either waits for the first MTR's commit (it holds
	// the header) or, if nothing holds it, is logged first.
	select {
	case err := <-done:
		done <- err
	case <-time.After(100 * time.Millisecond):
	}
	if _, err := mtA.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := e.WaitAllShipped(); err != nil {
		t.Fatal(err)
	}
	e.EP().Kill()
	e.Close()

	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 256}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatal(err)
	}
	hdr, err := newRW.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		t.Fatal(err)
	}
	hdr.Latch.RLock()
	cpg, coff := txn.UndoAlloc(hdr.Data)
	hdr.Latch.RUnlock()
	hdr.Unpin()
	for _, r := range []placed{first, second} {
		if cpg < r.pg || (cpg == r.pg && int(coff) < int(r.off)+r.n) {
			t.Errorf("recovered undo cursor %d/%d is behind the record at %d/%d+%d", cpg, coff, r.pg, r.off, r.n)
		}
	}
}

// TestCTSWatermarkNeverFalls: commits reach the undo header out of
// timestamp order. Three land in descending order and the RW crashes; the
// new RW's next timestamp must still be above every one of them, or it
// would hand out a timestamp already committed.
func TestCTSWatermarkNeverFalls(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	e := h.rw
	ts := []types.Timestamp{e.cts.NextTS(), e.cts.NextTS(), e.cts.NextTS()}
	var end types.LSN
	for i := len(ts) - 1; i >= 0; i-- {
		mt := e.BeginMtr()
		err := e.raiseCTSWatermark(mt, ts[i])
		lsn, cerr := mt.Commit()
		if err != nil || cerr != nil {
			t.Fatal(err, cerr)
		}
		if lsn > end {
			end = lsn
		}
	}
	if err := e.DurableCommit(end); err != nil {
		t.Fatal(err)
	}
	e.EP().Kill()
	e.Close()

	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 256}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatal(err)
	}
	if next := newRW.cts.NextTS(); next <= ts[2] {
		t.Fatalf("the recovered RW hands out timestamp %d; %d was committed", next, ts[2])
	}
}

// TestMtrLatchOrderStress drives every MTR kind that can hold latches
// while it takes more at once — writers whose large rows split leaves,
// rollbacks whose deletes merge them, tombstone purges, the commit-
// timestamp backfill — next to an RO node whose reads of pages the RW
// holds dirty go through eng.flushpage. A latch taken out of order shows
// as a hang, which the deadline turns into a failure with every goroutine's
// stack.
func TestMtrLatchOrderStress(t *testing.T) {
	h := newHarness(t, harnessOpts{cachePages: 128, poolPages: 1024})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")
	const keys, writers, txns = 120, 4, 60
	served := counter(h.rw, "engine.flush.served")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx, err := h.rw.Begin()
				if err != nil {
					errc <- err
					return
				}
				ks := []int{rng.Intn(keys), rng.Intn(keys), rng.Intn(keys)}
				sort.Ints(ks) // row locks in key order: no deadlock
				for j, k := range ks {
					k := uint64(k)
					var err error
					if rng.Intn(4) == 0 {
						err = tx.Delete(tbl, k)
					} else {
						err = tx.Put(tbl, k, bytes.Repeat([]byte{byte('a' + j)}, 300+rng.Intn(700)))
					}
					if err != nil && !errors.Is(err, ErrKeyNotFound) {
						errc <- err
						_ = tx.Rollback()
						return
					}
				}
				if rng.Intn(3) == 0 {
					err = tx.Rollback()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // purges merge emptied leaves
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.rw.PurgeTombstones(tbl); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // RO reads of pages the RW holds dirty
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := ro.BeginRO()
			if err != nil {
				errc <- err
				return
			}
			err = tx.Scan(roTbl, 0, keys, func(uint64, []byte) bool { return true })
			_ = tx.Commit()
			if err != nil && !errors.Is(err, ErrStalePage) {
				errc <- err
				return
			}
		}
	}()
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(stop)
		bg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<22)
		panic(fmt.Sprintf("MTR latch-order stress hung; goroutines:\n%s", buf[:runtime.Stack(buf, true)]))
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if counter(h.rw, "engine.flush.served") == served {
		t.Error("the RO never asked the RW for a page")
	}
	if bad := storageMismatches(t, h.rw); len(bad) > 0 {
		t.Errorf("%d cached pages differ from storage at their LSN:\n%v", len(bad), bad)
	}
}
