package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardb/internal/btree"
)

// TestROReadersNeverLoseInvalidation is the regression test for DESIGN
// invariant 1 on the refresh path. One writer rewrites 8 hot rows, so
// every commit invalidates the same few record and undo pages, and two
// readers on one RO keep refreshing them. A reader that cleared the
// frame's invalid flag after its read erased any invalidation that had
// landed since its PIB probe; the RO then kept an undo page marked valid
// that was older than the record page pointing into it, and the version
// walk ended in a zeroed undo slot. Every read must return the row.
//
// A second writer spreads updates over a table of some forty leaves, and
// on a second RO whose local cache holds fewer pages than that, a range
// scanner and a BKP reader keep the warmer filling leaves the writer is
// invalidating: an invalidation that lands on a fill in flight
// (flight.invalidated) must not be lost either. Their reads are checked
// for freshness as well: a row read after its commit was acknowledged
// carries at least that commit's value.
func TestROReadersNeverLoseInvalidation(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 1024, latency: true})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 8
	for k := uint64(0); k < rows; k++ {
		mustCommitPut(t, h.rw, tbl, k, "v0")
	}
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")

	const wideRows = 1000
	wide, err := h.rw.CreateTable("wide")
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, h.rw, wide, 0, wideRows)
	var acked [wideRows]atomic.Uint64 // newest acknowledged version of each wide row
	version := func(payload []byte) uint64 {
		var v uint64
		_, _ = fmt.Sscanf(string(payload), "w%d-", &v) // a row never updated reads as version 0
		return v
	}
	small := h.newEngine(t, "ro-small", Config{
		LocalCachePages: 32,
		CTSRegionID:     h.rw.CTSRegionID(),
	}, true, h.rw.EP().ID())
	smallTbl := mustOpen(t, small, "wide")

	window := 5 * time.Second
	if testing.Short() {
		window = time.Second
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes, reads atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
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
			if err := tx.Update(tbl, i%rows, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			writes.Add(1)
		}
	}()
	wg.Add(3)
	go func() { // the wide table's writer
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i * 37 % wideRows
			tx, err := h.rw.Begin()
			if err == nil {
				err = tx.Update(wide, k, append([]byte(fmt.Sprintf("w%d-", i)), freshPayload(k)...))
			}
			if err == nil {
				err = tx.Commit()
			}
			if err != nil {
				t.Errorf("wide writer: %v", err)
				return
			}
			acked[k].Store(i)
			writes.Add(1)
		}
	}()
	go func() { // range scans: read-ahead fills run under the invalidations
		defer wg.Done()
		for from := uint64(0); ; from = (from + 130) % (wideRows - 200) {
			select {
			case <-stop:
				return
			default:
			}
			var floor [200]uint64
			for i := range floor {
				floor[i] = acked[from+uint64(i)].Load()
			}
			tx, err := small.BeginRO()
			if err != nil {
				t.Errorf("scanner: begin: %v", err)
				return
			}
			next := from
			err = tx.Scan(smallTbl, from, from+200, func(k uint64, v []byte) bool {
				if k != next || version(v) < floor[k-from] {
					t.Errorf("scanner: row %d (want %d) has version %d, %d was acknowledged before the scan began", k, next, version(v), floor[k-from])
					return false
				}
				next++
				return true
			})
			_ = tx.Commit()
			if err != nil || (next != from+200 && !t.Failed()) {
				t.Errorf("scanner: scan [%d,%d) stopped at %d, err %v", from, from+200, next, err)
			}
			if t.Failed() {
				return
			}
			reads.Add(1)
		}
	}()
	go func() { // BKP: a batch of keys across the table, warmed, then read
		defer wg.Done()
		keys := make([]uint64, 16)
		for base := uint64(0); ; base += 61 {
			select {
			case <-stop:
				return
			default:
			}
			var floor [16]uint64
			for i := range keys {
				keys[i] = (base + uint64(i)*59) % wideRows
				floor[i] = acked[keys[i]].Load()
			}
			small.Prefetch(smallTbl.Primary, keys).Wait()
			tx, err := small.BeginRO()
			if err != nil {
				t.Errorf("bkp reader: begin: %v", err)
				return
			}
			for i, k := range keys {
				v, ok, err := tx.Get(smallTbl, k)
				if err != nil || !ok || version(v) < floor[i] {
					t.Errorf("bkp reader: row %d = found %v, err %v, version %d, %d was acknowledged before", k, ok, err, version(v), floor[i])
					break
				}
			}
			_ = tx.Commit()
			if t.Failed() {
				return
			}
			reads.Add(1)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := uint64(r); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := ro.BeginRO()
				if err != nil {
					t.Errorf("reader %d: begin: %v", r, err)
					return
				}
				_, ok, err := tx.Get(roTbl, i%rows)
				_ = tx.Commit()
				if err != nil || !ok {
					t.Errorf("reader %d: read %d of row %d = found %v, err %v", r, reads.Load(), i%rows, ok, err)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	deadline := time.After(window)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case <-deadline:
			break wait
		case <-tick.C:
			if t.Failed() {
				break wait
			}
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d writes, %d reads in %v", writes.Load(), reads.Load(), window)
	if writes.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("no traffic: %d writes, %d reads", writes.Load(), reads.Load())
	}
}
