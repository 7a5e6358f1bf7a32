package engine

import (
	"sync"
	"testing"
	"time"

	"polardb/internal/cache"
	"polardb/internal/types"
)

// TestConcurrentFetchesShareOneFill: two goroutines that fetch one cold
// page at once make one page_register and one storage read between them,
// and get the same frame. Storage reads take simulated time, so the two
// fetches overlap; the test fails if none of its pages saw them overlap.
func TestConcurrentFetchesShareOneFill(t *testing.T) {
	h := newHarness(t, harnessOpts{latency: true})
	e := h.rw
	overlapped := 0
	for no := types.PageNo(1); no <= 8; no++ {
		id := types.PageID{Space: FirstUserSpace + 100, No: no}
		before := e.EP().Metrics().Snapshot()
		var (
			wg         sync.WaitGroup
			frames     [2]*cache.Frame
			errs       [2]error
			began, end [2]time.Time
		)
		start := make(chan struct{})
		for i := range frames {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				began[i] = time.Now()
				frames[i], errs[i] = e.Fetch(id)
				end[i] = time.Now()
			}()
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: fetch %d: %v", id, i, err)
			}
			defer e.Unpin(frames[i])
		}
		if frames[0] != frames[1] {
			t.Fatalf("%s: the two fetches returned different frames", id)
		}
		d := e.EP().Metrics().Snapshot().Sub(before)
		registers := d.Counter("rmem.register.ops") + d.Counter("rmem.register.cached")
		if reads := d.Counter("engine.page.storage_read"); registers != 1 || reads != 1 {
			t.Fatalf("%s: %d page_register calls and %d storage reads for two concurrent fetches, want 1 and 1", id, registers, reads)
		}
		if began[0].Before(end[1]) && began[1].Before(end[0]) {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatal("no two fetches of a page overlapped: the test shows nothing")
	}
}
