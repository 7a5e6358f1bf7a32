package engine

import (
	"slices"
	"sync"

	"polardb/internal/btree"
	"polardb/internal/types"
)

// The warmer: the one place the engine fetches pages on behalf of a batch.
// Whoever knows a set of pages that is about to be read hands it over, and
// their fills run side by side instead of one after the other inside the
// reader — storage and remote-memory latencies are waits, so they overlap
// for free. Three callers: Batched Key PrePare (Prefetch, §4.2), a range
// scan's read-ahead (Warm, the btree.Store hint) and RW recovery
// (Recover step 9, §5.1).

// warmParallelism bounds the warm-up fills an engine keeps in flight, all
// calls together: a join buffer's worth (64 keys touch at most 64 leaves),
// so a BKP batch is one round of latency however its keys are spread. The
// bound is per engine because the hints come faster than fills finish — a
// range scan names up to 16 leaves at every leaf it reads — and each worker
// pins the frame it filled for a moment: unbounded, the workers outnumber
// the cache's frames and pin all of them.
const warmParallelism = 64

// warm starts filling the local cache with ids in the background and
// returns at once; the handle waits for the fills. A page that is cached
// and valid, or that somebody is filling already, is skipped by a probe
// that counts nothing (cache.Probe). Every other page goes through fetch —
// the same registration, PIB probe and invalidation handling as a reader's
// miss, and a reader that wants the page meanwhile waits for the fill.
// A failed fill is dropped: the page is read when it is asked for, as it
// would have been. At most half the local cache is asked for, so a small
// cache is not churned by a large batch. The fills run under e.wg and none
// starts once the engine is closed; a call gets the workers that the
// engine's other warm-ups leave of warmParallelism, and warms nothing if
// they leave none — it is a hint.
//
//polarvet:fabric none the fills run on their own goroutines; the caller's path issues no verb
func (e *Engine) warm(ids []types.PageID) *PrefetchHandle {
	h := &PrefetchHandle{}
	if limit := e.cache.Capacity() / 2; len(ids) > limit {
		ids = ids[:limit]
	}
	var cold []types.PageID
	for _, id := range ids {
		if !e.cache.Probe(id) {
			cold = append(cold, id)
		}
	}
	if len(cold) == 0 {
		return h
	}
	// warmMu orders the admission against Close: either Close finds these
	// workers in e.wg, or they find the engine closed and are not started.
	e.warmMu.Lock()
	if e.closed.Load() {
		cold = nil
	}
	workers := min(len(cold), warmParallelism-e.warmers)
	e.warmers += workers
	e.wg.Add(workers)
	e.warmMu.Unlock()
	if workers == 0 {
		return h
	}
	e.met.warmCalls.Inc()
	e.met.warmPages.Add(uint64(len(cold)))

	h.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer e.wg.Done()
			defer h.wg.Done()
			defer func() {
				e.warmMu.Lock()
				e.warmers--
				e.warmMu.Unlock()
			}()
			for i := w; i < len(cold) && !e.closed.Load(); i += workers {
				// Each page is its own register + read (remote memory or
				// PolarFS): measured, those round trips overlap across
				// workers already, so batching them would buy no time.
				if f, err := e.fetch(cold[i], false); err == nil {
					f.Unpin()
				}
			}
		}()
	}
	return h
}

// Warm implements the btree.Store hint. What the tree names is a guess at
// what a scan or a level walk reads next, so it gets a quarter of the
// local cache at most.
func (e *Engine) Warm(ids []types.PageID) {
	if limit := e.cache.Capacity() / 4; len(ids) > limit {
		ids = ids[:limit]
	}
	e.warm(ids)
}

// Prefetch is Batched Key PrePare (BKP, §4.2): given the keys about to be
// accessed (e.g. the inner-table keys accumulated in a join buffer), it
// resolves them to the leaves that hold them — one level of the index at
// a time, on the caller's goroutine; inner pages are normally cached — and
// has all of those leaves fetched in the background at once, so the batch
// costs one round of remote-memory or storage latency instead of one per
// leaf. Wait on the returned handle blocks until the warm-up finishes.
// Prefetching is a hint: if the index walk fails, the reads that follow
// fetch for themselves.
func (e *Engine) Prefetch(tree *btree.Tree, keys []uint64) *PrefetchHandle {
	sorted := append([]uint64(nil), keys...)
	slices.Sort(sorted)
	leaves, _ := tree.Leaves(sorted, e.readMode())
	return e.warm(leaves)
}

// PrefetchHandle tracks an in-flight warm-up.
type PrefetchHandle struct {
	wg sync.WaitGroup
}

// Wait blocks until the warm-up completes.
func (h *PrefetchHandle) Wait() { h.wg.Wait() }
