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
// §3.1.4 invalidation fan-out and the purge's "addresses gone" (slab
// failure, Shrink, RW takeover); the callback wire format is uniformly
// count + page ids.
func (h *Home) notifyHolders(cb string, holders map[rdma.NodeID][]types.PageID) {
	reqs := make(map[rdma.NodeID][]byte, len(holders))
	for n, pages := range holders {
		if len(pages) > 0 {
			w := wire.NewWriter(4 + 8*len(pages))
			writePages(w, pages)
			reqs[n] = w.Bytes()
		}
	}
	h.callHolders(cb, reqs)
}

// callHolders sends each holder its one callback (notifyHolders' page
// lists, reclaim's request) and returns the replies of those that
// answered. Unresponsive holders are kicked so the round always completes
// (the copies they failed to drop die with their references).
func (h *Home) callHolders(cb string, reqs map[rdma.NodeID][]byte) map[rdma.NodeID][]byte {
	replies := make(map[rdma.NodeID][]byte, len(reqs))
	for n, req := range reqs {
		if h.isKicked(n) {
			continue
		}
		// One callback per distinct destination node, already carrying that
		// node's whole request: batched per holder by construction.
		//polarvet:allow fabriccost the iteration is over distinct destination nodes and each receives a single batched RPC; there is nothing left to coalesce
		resp, err := h.ep.CallTimeout(n, method(cb), req, h.cfg.InvalidateTimeout)
		if err != nil {
			h.kickNode(n)
			continue
		}
		replies[n] = resp
	}
	return replies
}
