package rmem

import (
	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// notifyHolders delivers a page-list callback (cb.inv, cb.slabfail) to
// reference holders, batched per destination: each node receives one RPC
// carrying every affected page it holds, instead of one round trip per
// (page, holder) pair. This is the single implementation behind the
// §3.1.4 invalidation fan-out, slab-failure notification and forced
// eviction; the callback wire format is uniformly count + page ids.
// Unresponsive holders are kicked so the notification always completes
// (the copy they failed to drop dies with their references).
func (h *Home) notifyHolders(cb string, holders map[rdma.NodeID][]types.PageID) {
	for n, pages := range holders {
		if h.isKicked(n) || len(pages) == 0 {
			continue
		}
		w := wire.NewWriter(4 + 8*len(pages))
		writePages(w, pages)
		// One callback per distinct destination node, already carrying that
		// node's whole page list: batched per holder by construction.
		//polarvet:allow fabriccost the iteration is over distinct destination nodes and each receives a single batched RPC; there is nothing left to coalesce
		if _, err := h.ep.CallTimeout(n, method(cb), w.Bytes(), h.cfg.InvalidateTimeout); err != nil {
			h.kickNode(n)
		}
	}
}

// holdersOf builds a single-page holder map for notifyHolders.
func holdersOf(nodes []rdma.NodeID, page types.PageID) map[rdma.NodeID][]types.PageID {
	out := make(map[rdma.NodeID][]types.PageID, len(nodes))
	for _, n := range nodes {
		out[n] = []types.PageID{page}
	}
	return out
}
