package rmem

import (
	"polardb/internal/rdma"
	"polardb/internal/types"
)

// migration is one referenced page Shrink copies out of a victim slab;
// the addresses are fixed under h.mu so the copy can run without it.
type migration struct {
	e        *patEntry
	src, dst rdma.Addr
}

// Shrink reduces the pool capacity to at most targetSlots (at least one
// slab is always kept): unreferenced pages are evicted via LRU, and
// referenced pages in victim slabs are migrated to the retained slabs to
// defragment (§3.1.2: "pages are migrated in the background to
// defragment, and unused slabs are released"). Holders of migrated pages
// are notified to drop their stale remote addresses and re-register.
func (h *Home) Shrink(targetSlots int) (int, error) {
	h.mu.Lock()
	over := func() bool {
		total, _ := h.tab.capacity()
		return total > targetSlots
	}
	releaseEmpty := func() {
		for over() && len(h.tab.slabs) > 1 {
			var victim *slabInfo
			for _, sl := range h.tab.slabList {
				if len(sl.free) == sl.pages {
					victim = sl
					break
				}
			}
			if victim == nil {
				return
			}
			h.mutate(homeOp{kind: replOpFreeSlab, slab: victim.key})
			h.freeSlabRemote(victim.key)
		}
	}
	// Phase 1: LRU-evict unreferenced pages, releasing drained slabs.
	releaseEmpty()
	for over() && h.tab.oldest() != nil {
		h.evictLocked(h.tab.oldest())
		releaseEmpty()
	}
	// Phase 2: defragment (§3.1.2). The emptiest slab's surviving pages —
	// all referenced, or phase 1 would have drained them — are migrated
	// into free slots of the retained slabs and the emptied slab is
	// released. Holders are notified (cb.slabfail) to drop their stale
	// remote addresses and re-register on next access. A slab whose pages
	// do not fit elsewhere is kept: referenced pages pin their slab, and
	// Shrink returns the capacity it achieved.
	for over() && len(h.tab.slabs) > 1 {
		victim, moves, ok := h.planMigrationLocked()
		if !ok {
			break
		}
		h.mu.Unlock()
		// Copy page bytes with one-sided verbs, h.mu released: fabric
		// latency must not stall the control plane.
		buf := make([]byte, types.PageSize)
		failed := map[*patEntry]bool{}
		for _, mv := range moves {
			if err := h.ep.Read(mv.src, buf); err != nil {
				failed[mv.e] = true
			} else if err := h.ep.Write(mv.dst, buf); err != nil {
				failed[mv.e] = true
			}
		}
		h.mu.Lock()
		holders := map[rdma.NodeID][]types.PageID{}
		for _, mv := range moves {
			e := mv.e
			if h.tab.pat[e.page.Key()] != e {
				continue // evicted while we copied, its reservation with it
			}
			for n := range e.refs {
				holders[n] = append(holders[n], e.page)
			}
			if _, dstLive := h.tab.slabs[e.dst]; failed[e] || len(e.refs) == 0 || !dstLive {
				// A slab node died mid-copy (the page is reconstructible
				// from storage, log-before-page) or the last holder left
				// while we copied: drop the page and its reserved slot.
				h.evictLocked(e)
				continue
			}
			h.mutate(homeOp{kind: replOpMove, page: e.page})
		}
		h.mu.Unlock()
		h.freeSlabRemote(victim)
		h.notifyHolders("cb.slabfail", holders)
		h.mu.Lock()
	}
	total, _ := h.tab.capacity()
	h.mu.Unlock()
	h.flushReplication()
	return total, nil
}

// planMigrationLocked picks the emptiest slab as victim and, if its pages
// fit in the other slabs' free slots, takes it out of the table — no
// registration can allocate into it mid-migration, while its region stays
// live on the slab node until freeSlabRemote — and reserves a destination
// slot per page (best-fit, like allocateLocked; the reserve op also marks
// the page stale so no holder trusts bytes we may copy mid-write).
// It reports false, changing nothing, if the victim's pages do not fit.
func (h *Home) planMigrationLocked() (slabKey, []migration, bool) {
	victim := h.tab.slabList[0]
	for _, sl := range h.tab.slabList {
		if sl.pages-len(sl.free) < victim.pages-len(victim.free) {
			victim = sl
		}
	}
	_, free := h.tab.capacity()
	if victim.pages-len(victim.free) > free-len(victim.free) {
		return slabKey{}, nil, false
	}
	h.mutate(homeOp{kind: replOpFreeSlab, slab: victim.key})
	var moves []migration
	for _, e := range h.tab.pat {
		if e.slab != victim.key {
			continue
		}
		dst := h.tab.bestFit()
		slot := dst.free[len(dst.free)-1]
		h.mutate(homeOp{kind: replOpReserve, page: e.page, slab: dst.key, slot: slot})
		moves = append(moves, migration{e, victim.key.addr(e.slot), dst.key.addr(slot)})
	}
	return victim.key, moves, true
}
