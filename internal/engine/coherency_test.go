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
