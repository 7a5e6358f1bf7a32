package engine

import (
	"sort"
	"sync"

	"polardb/internal/btree"
)

// Batched Key PrePare (BKP, §4.2): given a batch of keys about to be
// accessed (e.g. the inner-table keys accumulated in a join buffer), a
// background task walks the index and pulls the covering pages from
// remote memory or storage into the local cache, hiding remote I/O
// latency behind the foreground's other work.

// bkpParallelism bounds concurrent background prefetch descents.
const bkpParallelism = 8

// Prefetch starts a BKP task over the tree for the given keys and returns
// immediately; Wait on the returned handle blocks until warm-up finishes.
// Keys are sorted and deduplicated, and each distinct *leaf* is fetched
// once: a descent reports the leaf's key coverage, and every remaining
// key within it is skipped.
func (e *Engine) Prefetch(tree *btree.Tree, keys []uint64) *PrefetchHandle {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := &PrefetchHandle{}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		mode := e.readMode()
		// Shard the sorted key range across workers: each shard walks its
		// keys sequentially (skipping keys covered by the leaf it just
		// fetched), and shards run in parallel so remote/storage latency
		// overlaps — the point of BKP.
		shards := bkpParallelism
		if shards > len(sorted) {
			shards = len(sorted)
		}
		if shards == 0 {
			return
		}
		per := (len(sorted) + shards - 1) / shards
		var inner sync.WaitGroup
		for s := 0; s < shards; s++ {
			lo := s * per
			hi := lo + per
			if hi > len(sorted) {
				hi = len(sorted)
			}
			if lo >= hi {
				break
			}
			inner.Add(1)
			go func(keys []uint64) {
				defer inner.Done()
				i := 0
				for i < len(keys) {
					k := keys[i]
					//polarvet:allow verbdeadline structurally bounded: i advances on every iteration, so the loop ends after at most len(keys) leaf fetches, each of which fails fast on a dead node
					last, ok, err := tree.LeafCoverage(k, mode)
					if err != nil || !ok {
						last = k
					}
					i++
					for i < len(keys) && keys[i] <= last {
						i++
					}
				}
			}(sorted[lo:hi])
		}
		inner.Wait()
	}()
	return h
}

// PrefetchHandle tracks an in-flight BKP task.
type PrefetchHandle struct {
	wg sync.WaitGroup
}

// Wait blocks until the prefetch task completes.
func (h *PrefetchHandle) Wait() { h.wg.Wait() }
