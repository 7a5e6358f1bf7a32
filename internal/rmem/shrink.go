package rmem

// Shrink reduces the pool capacity to at most targetSlots; at least one
// slab is always kept. Unreferenced pages are evicted in LRU order and the
// slabs they drain are released. While the pool is still over the target
// and every page left is referenced, the emptiest slab leaves the pool and
// its pages are purged (scale-in drains slabs by force-eviction): a page is
// always reconstructible from storage, and the RW keeps its own copy, so
// the home never copies one. The slab regions are freed once their pages'
// holders have been told. Returns the capacity reached.
func (h *Home) Shrink(targetSlots int) (int, error) {
	h.mu.Lock()
	var victims []slabKey
	for {
		total, _ := h.tab.capacity()
		if total <= targetSlots || len(h.tab.slabs) <= 1 {
			break
		}
		sl := h.tab.emptiest()
		if len(sl.free) < sl.pages {
			if e := h.tab.oldest(); e != nil {
				h.evictLocked(e)
				continue
			}
		}
		h.mutate(homeOp{kind: replOpFreeSlab, slab: sl.key})
		victims = append(victims, sl.key)
	}
	total, _ := h.tab.capacity()
	h.mu.Unlock()
	h.purge(h.slabGone)
	for _, key := range victims {
		h.freeSlabRemote(key)
	}
	return total, nil
}
