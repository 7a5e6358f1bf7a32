package engine

import (
	"runtime"
	"testing"
	"time"

	"polardb/internal/btree"
	"polardb/internal/stat"
	"polardb/internal/types"
)

// coldTable loads rows [0, n) into a table on a storage-only RW (every
// miss is one PolarFS read, ~2.4 ms under the latency option), waits until
// nothing is left to write or backfill, empties the local cache and reads
// one row back so that the pages above the leaves are cached again.
func coldTable(t *testing.T, n uint64) (*harness, *Table) {
	t.Helper()
	h := newHarness(t, harnessOpts{noPool: true, latency: true, cachePages: 512})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	insertRows(t, h.rw, tbl, 0, n)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	waitBackfilled(t, tbl, keys)
	h.rw.WaitAllShipped()
	h.rw.Cache().EvictAll()
	checkRows(t, h.rw, tbl, n-1, n)
	return h, tbl
}

// coldLeafLatency reads three rows off cold leaves of coldTable(t, 2400)
// and returns the fastest: what one storage latency is on this host today.
func coldLeafLatency(t *testing.T, e *Engine, tbl *Table) time.Duration {
	t.Helper()
	var single time.Duration
	for k := uint64(2000); k < 2300; k += 100 {
		t0 := time.Now()
		checkRows(t, e, tbl, k, k+1)
		if d := time.Since(t0); single == 0 || d < single {
			single = d
		}
	}
	return single
}

func storageReads(e *Engine, since stat.Snapshot) uint64 {
	return e.EP().Metrics().Snapshot().Sub(since).Counter("engine.page.storage_read")
}

// TestPrefetchOverlapsColdLeaves: a 64-key join buffer whose leaves are all
// in storage costs one round of storage latency, not one per leaf (nor one
// per eight, as it did when eight descents shared the work), reads every
// cold page exactly once, and reads nothing the second time.
func TestPrefetchOverlapsColdLeaves(t *testing.T) {
	h, tbl := coldTable(t, 2400)
	e := h.rw

	single := coldLeafLatency(t, e, tbl)

	// Three disjoint batches: the host stalls now and then, the best counts.
	best := time.Duration(0)
	for b := uint64(0); b < 3; b++ {
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = b*640 + uint64(i)*3
		}
		leaves, err := tbl.Primary.Leaves(keys, btree.Local)
		if err != nil {
			t.Fatal(err)
		}
		cold := 0
		for _, id := range leaves {
			if resident, _ := e.Cache().Probe(id); !resident {
				cold++
			}
		}
		if cold < 8 {
			t.Fatalf("batch %d covers %d cold leaves; the test wants at least 8", b, cold)
		}
		before := e.EP().Metrics().Snapshot()
		t0 := time.Now()
		e.Prefetch(tbl.Primary, keys).Wait()
		took := time.Since(t0)
		if best == 0 || took < best {
			best = took
		}
		d := e.EP().Metrics().Snapshot().Sub(before)
		if got := d.Counter("engine.page.storage_read"); got != uint64(cold) {
			t.Fatalf("batch %d: engine.page.storage_read +%d for %d cold leaves", b, got, cold)
		}
		if calls, pages := d.Counter("engine.warm.calls"), d.Counter("engine.warm.pages"); calls != 1 || pages != uint64(cold) {
			t.Fatalf("batch %d: engine.warm.calls +%d, engine.warm.pages +%d for one batch of %d cold leaves", b, calls, pages, cold)
		}
		if hits := d.Counter("engine.page.local_hit"); hits > 2 {
			t.Fatalf("batch %d: the warm-up counted %d local hits; only the walk's own fetches (root) may", b, hits)
		}

		before = e.EP().Metrics().Snapshot()
		e.Prefetch(tbl.Primary, keys).Wait()
		if d := e.EP().Metrics().Snapshot().Sub(before); d.Counter("engine.page.storage_read") != 0 || d.Counter("engine.warm.calls") != 0 {
			t.Fatalf("batch %d again: engine.page.storage_read +%d, engine.warm.calls +%d, want 0 and 0",
				b, d.Counter("engine.page.storage_read"), d.Counter("engine.warm.calls"))
		}
		for _, k := range keys { // and the rows are there
			checkRows(t, e, tbl, k, k+1)
		}
		if n := storageReads(e, before); n != 0 {
			t.Fatalf("batch %d: reads after the prefetch went to storage %d times", b, n)
		}
	}
	t.Logf("one cold leaf %v, a 64-key batch %v", single, best)
	if best >= 2*single {
		t.Fatalf("a 64-key batch over >= 8 cold leaves took %v, two storage latencies are %v", best, 2*single)
	}
}

// TestRangeScanReadsAhead: through the engine, a range scan over cold
// leaves overlaps their reads, reads each once and none past the range.
func TestRangeScanReadsAhead(t *testing.T) {
	h, tbl := coldTable(t, 2400)
	e := h.rw
	const from, to = 300, 700
	var keys []uint64
	for k := uint64(from); k < to; k++ {
		keys = append(keys, k)
	}
	leaves, err := tbl.Primary.Leaves(keys, btree.Local)
	if err != nil {
		t.Fatal(err)
	}
	span := uint64(len(leaves))
	if span < 8 {
		t.Fatalf("rows [%d,%d) lie on %d leaves; the test wants at least 8", from, to, span)
	}
	single := coldLeafLatency(t, e, tbl)
	before := e.EP().Metrics().Snapshot()
	tx, err := e.BeginRO()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	t0 := time.Now()
	if err := tx.Scan(tbl, from, to, func(uint64, []byte) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	took := time.Since(t0)
	_ = tx.Commit()
	if rows != to-from {
		t.Fatalf("scan delivered %d rows, want %d", rows, to-from)
	}
	if got := storageReads(e, before); got != span {
		t.Fatalf("engine.page.storage_read +%d for a scan over %d cold leaves", got, span)
	}
	t.Logf("one cold leaf %v, a scan over %d of them %v", single, span, took)
	if took >= time.Duration(span)*single/2 {
		t.Fatalf("a scan over %d cold leaves took %v; one after the other they take %v", span, took, time.Duration(span)*single)
	}
}

// TestWarmWorkersAreBounded: hints that come faster than fills finish — a
// range scan names up to 16 leaves at every leaf it reads — share the
// engine's warmParallelism workers instead of each starting its own. They
// used to pile up by the thousand and, pinning a frame each for a moment,
// pin every frame of a small cache.
func TestWarmWorkersAreBounded(t *testing.T) {
	h, tbl := coldTable(t, 6000)
	e := h.rw
	keys := make([]uint64, 0, 600)
	for k := uint64(0); k < 6000; k += 10 {
		keys = append(keys, k)
	}
	leaves, err := tbl.Primary.Leaves(keys, btree.Local)
	if err != nil {
		t.Fatal(err)
	}
	window := e.Cache().Capacity() / 4
	if len(leaves) < 2*window || window < warmParallelism {
		t.Fatalf("%d leaves, hints of %d; the test wants hints of at least %d cold pages", len(leaves), window, warmParallelism)
	}
	base := runtime.NumGoroutine()
	peak := 0
	for i := 0; i < 40; i++ {
		at := i * 7 % (len(leaves) - window)
		e.Warm(leaves[at : at+window])
		peak = max(peak, runtime.NumGoroutine()-base)
	}
	// Each fill may hold a CallTimeout goroutine too; unbounded, 40 hints
	// start 40 × warmParallelism workers.
	if peak > 3*warmParallelism {
		t.Fatalf("40 hints of %d cold pages ran up %d goroutines", window, peak)
	}
}

// TestPrefetchStopsAtClose: a warm-up in flight when its engine is closed
// ends there. Close waits for the fills that are running, and none starts
// afterwards; the batch's handle still completes.
func TestPrefetchStopsAtClose(t *testing.T) {
	h, tbl := coldTable(t, 6000)
	e := h.rw
	keys := make([]uint64, 0, 600)
	for k := uint64(0); k < 6000; k += 10 {
		keys = append(keys, k)
	}
	leaves, err := tbl.Primary.Leaves(keys, btree.Local)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 4*warmParallelism {
		t.Fatalf("the batch covers %d leaves; the test wants several rounds of %d", len(leaves), warmParallelism)
	}
	before := e.EP().Metrics().Snapshot()
	handle := e.Prefetch(tbl.Primary, keys)
	e.Close()
	atClose := storageReads(e, before)
	handle.Wait()
	if atClose >= uint64(len(leaves)) {
		t.Fatalf("Close returned after all %d leaves had been read; it should have cut the batch short", len(leaves))
	}
	time.Sleep(20 * time.Millisecond) // eight storage latencies: a fill still running would show
	if later := storageReads(e, before); later != atClose {
		t.Fatalf("engine.page.storage_read went %d -> %d after Close returned", atClose, later)
	}
	// A closed engine admits no new warm-up either.
	e.Prefetch(tbl.Primary, keys).Wait()
	e.Warm([]types.PageID{leaves[len(leaves)-2]})
	time.Sleep(5 * time.Millisecond)
	if later := storageReads(e, before); later != atClose {
		t.Fatalf("a warm-up started on a closed engine: engine.page.storage_read %d -> %d", atClose, later)
	}
}
