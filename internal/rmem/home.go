package rmem

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// Home is the home node of a remote memory pool instance: the slab node
// holding the first slab plus the instance-wide metadata (PAT, PIB, PRD,
// PLT) and the control plane for growth, shrink and failure handling.
type Home struct {
	ep  *rdma.Endpoint
	cfg Config

	mu      sync.Mutex
	tab     homeTable // read freely under mu; changed only through mutate
	kicked  map[rdma.NodeID]bool
	passive bool // slave: no client traffic until promoted
	// purging holds the entries a purge has detached and not yet released:
	// their holders may not have heard of the purge yet, so an invalidation
	// of the page still goes to them.
	purging map[*patEntry]bool

	// Replication (replication.go), under mu too: mutations mirrored to
	// the slave are queued under mu and sent by a flushing caller with mu
	// released, so the control plane never stalls behind slave fabric
	// latency. replCond (over mu) wakes the callers waiting for that send.
	slave       rdma.NodeID // "" once a send to it has failed
	replQ       []homeOp
	replSeq     uint64 // ops queued
	replSent    uint64 // ops sent (or dropped)
	replSending bool
	replCond    *sync.Cond

	met     homeMetrics
	closeCh chan struct{}
	wg      sync.WaitGroup
}

// homeMetrics are the home node's pool-side counters (one per paper
// mechanism: §3.1 registration/coherency, eviction pressure).
type homeMetrics struct {
	registers     *stat.Counter // page_register requests served
	hits          *stat.Counter // registers that found the page pooled (remote hits)
	misses        *stat.Counter // registers that found nothing pooled
	evictions     *stat.Counter // pages evicted from the pool
	invalidations *stat.Counter // page_invalidate requests served
	invFanout     *stat.Counter // per-holder invalidation callbacks sent
	reclaims      *stat.Counter // per-holder cb.reclaim callbacks answered
	reclaimed     *stat.Counter // idle registrations those callbacks freed
}

func newHomeMetrics(r *stat.Registry) homeMetrics {
	return homeMetrics{
		registers:     r.Counter("rmem.home.registers"),
		hits:          r.Counter("rmem.home.hits"),
		misses:        r.Counter("rmem.home.misses"),
		evictions:     r.Counter("rmem.home.evictions"),
		invalidations: r.Counter("rmem.home.invalidations"),
		invFanout:     r.Counter("rmem.home.inv_fanout"),
		reclaims:      r.Counter("rmem.home.reclaims"),
		reclaimed:     r.Counter("rmem.home.reclaimed_pages"),
	}
}

// NewHome starts a home node on ep. slave, if non-empty, names a passive
// replica home that receives every metadata mutation synchronously.
func NewHome(ep *rdma.Endpoint, cfg Config, slave rdma.NodeID) *Home {
	cfg.applyDefaults()
	h := &Home{
		ep:      ep,
		cfg:     cfg,
		tab:     newHomeTable(ep.RegisterRegion(metaSlots * metaSlotSize)),
		kicked:  make(map[rdma.NodeID]bool),
		purging: make(map[*patEntry]bool),
		slave:   slave,
		met:     newHomeMetrics(ep.Metrics()),
		closeCh: make(chan struct{}),
	}
	h.replCond = sync.NewCond(&h.mu)
	ep.RegisterHandler(method("hello"), h.handleHello)
	ep.RegisterHandler(method("reg"), h.handleRegister)
	ep.RegisterHandler(method("unreg"), h.handleUnregister)
	ep.RegisterHandler(method("inv"), h.handleInvalidate)
	ep.RegisterHandler(method("pl.slow"), h.handlePLSlow)
	ep.RegisterHandler(method("repl"), h.handleReplicate)
	ep.RegisterHandler(method("takeover"), h.handleTakeover)
	if cfg.SlabHeartbeat > 0 {
		h.wg.Add(1)
		go h.slabHeartbeat()
	}
	return h
}

// slabHeartbeat detects slab node failures (§5.2): the home pings every
// node hosting slabs; after slabHeartbeatMisses consecutive misses the
// node's pages are dropped and holders notified.
func (h *Home) slabHeartbeat() {
	defer h.wg.Done()
	misses := make(map[rdma.NodeID]int)
	for {
		select {
		case <-h.closeCh:
			return
		case <-time.After(h.cfg.SlabHeartbeat):
		}
		if h.activeErr() != nil {
			continue
		}
		h.mu.Lock()
		nodes := map[rdma.NodeID]bool{}
		for key := range h.tab.slabs {
			nodes[key.node] = true
		}
		h.mu.Unlock()
		for n := range nodes {
			if n == h.ep.ID() {
				continue // the home's own slabs share its fate
			}
			//polarvet:allow fabriccost liveness probes are inherently one per slab node per tick; batching across destinations is impossible
			if _, err := h.ep.CallTimeout(n, method("slab.ping"), nil, h.cfg.SlabHeartbeat); err != nil {
				misses[n]++
				if misses[n] >= slabHeartbeatMisses {
					delete(misses, n)
					h.HandleSlabFailure(n)
				}
			} else {
				misses[n] = 0
			}
		}
	}
}

// NewSlaveHome starts a passive replica home: it applies replicated
// metadata mutations but serves no clients until Promote is called.
func NewSlaveHome(ep *rdma.Endpoint, cfg Config) *Home {
	h := NewHome(ep, cfg, "")
	h.mu.Lock()
	h.passive = true
	h.mu.Unlock()
	return h
}

// Promote activates a slave home after the master failed. PL latch state
// is not replicated (latches die with the master; recovery releases them),
// and every PIB bit is conservatively stale, so database nodes re-validate
// pages against storage on first access.
func (h *Home) Promote() {
	h.mu.Lock()
	h.passive = false
	for _, e := range h.tab.pat {
		h.tab.meta.MustStore64Local(e.slotOff+8, pibStale)
	}
	h.mu.Unlock()
}

// Close stops the home's background goroutines.
func (h *Home) Close() {
	close(h.closeCh)
	h.wg.Wait()
}

// Endpoint returns the home's fabric endpoint.
func (h *Home) Endpoint() *rdma.Endpoint { return h.ep }

// Stats returns an occupancy snapshot.
func (h *Home) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Stats{Slabs: len(h.tab.slabs), UsedSlots: len(h.tab.pat)}
	s.TotalSlots, s.FreeSlots = h.tab.capacity()
	for _, e := range h.tab.pat {
		if len(e.refs) > 0 {
			s.Referenced++
		}
	}
	return s
}

// isKicked reports whether a node has been removed from the cluster.
func (h *Home) isKicked(n rdma.NodeID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.kicked[n]
}

// kickNode marks a node dead and strips its references everywhere, on the
// slave too: a promoted slave that kept them would pin those pages out of
// the LRU and time out on every invalidation touching them.
func (h *Home) kickNode(n rdma.NodeID) {
	h.mu.Lock()
	if h.kicked[n] {
		h.mu.Unlock()
		return
	}
	h.kicked[n] = true
	h.mutate(homeOp{kind: replOpDropNode, node: n})
	h.mu.Unlock()
	h.flushReplication()
}

// nodeIndexLocked assigns (or returns) the small integer index for a node
// id, used as the owner field in PL words. The assignment is replicated:
// a node keeps the number it was given across a home failover, so the
// promoted slave must resolve it to the same node.
func (h *Home) nodeIndexLocked(n rdma.NodeID) uint16 {
	idx, ok := h.tab.nodeIdx[n]
	if !ok {
		idx = uint16(len(h.tab.nodes))
		h.mutate(homeOp{kind: replOpAddNode, node: n, idx: idx})
	}
	return idx
}

// AddSlab asks a slab node to create a slab of `pages` pages and adds it
// to the pool. Returns the new total slot count.
func (h *Home) AddSlab(node rdma.NodeID, pages int) (int, error) {
	if pages <= 0 {
		return 0, fmt.Errorf("rmem: a slab of %d pages", pages)
	}
	w := wire.NewWriter(8)
	w.U32(uint32(pages))
	// slab.create mutates the slab node's allocator (mmap + region
	// registration): the response layout is fixed, but the work is
	// remote-CPU by nature.
	resp, err := h.ep.Call(node, method("slab.create"), w.Bytes())
	if err != nil {
		return 0, fmt.Errorf("rmem: creating slab on %s: %w", node, err)
	}
	rd := wire.NewReader(resp)
	region := rd.U32()
	got := int(rd.U32())
	if err := rd.Err(); err != nil {
		return 0, err
	}
	h.mu.Lock()
	h.mutate(homeOp{kind: replOpAddSlab, slab: slabKey{node, region}, slot: got})
	total, _ := h.tab.capacity()
	h.mu.Unlock()
	h.flushReplication()
	return total, nil
}

// TotalSlots returns the pool capacity in pages.
func (h *Home) TotalSlots() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	total, _ := h.tab.capacity()
	return total
}

// freeSlabRemote releases a slab's memory on its node once the table no
// longer knows the slab. Asynchronous: waiting on an RPC to a
// possibly-dead node would stall the pool.
func (h *Home) freeSlabRemote(key slabKey) {
	go func() {
		w := wire.NewWriter(8)
		w.U32(key.region)
		// slab.free tears down the slab node's allocator state; a one-sided
		// write cannot unregister a region.
		//polarvet:allow errdrop best-effort free to a possibly-dead slab node; its memory dies with it and the PAT no longer references the region
		_, _ = h.ep.Call(key.node, method("slab.free"), w.Bytes())
	}()
}

// allocateLocked finds a free slot, evicting LRU unreferenced pages if
// necessary. Thanks to page materialization offloading, even dirty pages
// can be evicted instantaneously without flushing to storage.
func (h *Home) allocateLocked() (slabKey, int, error) {
	for {
		if best := h.tab.bestFit(); best != nil {
			return best.key, best.free[len(best.free)-1], nil
		}
		victim := h.tab.oldest()
		if victim == nil {
			return slabKey{}, 0, ErrOutOfMemory
		}
		h.evictLocked(victim)
	}
}

// evictLocked removes a page from the pool, whoever holds it, and counts
// the eviction.
func (h *Home) evictLocked(e *patEntry) {
	h.mutate(homeOp{kind: replOpEvict, page: e.page})
	h.met.evictions.Inc()
}

var errPassive = fmt.Errorf("rmem: home is a passive slave replica")

// activeErr rejects client traffic on a not-yet-promoted slave.
func (h *Home) activeErr() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.passive {
		return errPassive
	}
	return nil
}

// handleHello assigns (or returns) the caller's node index.
func (h *Home) handleHello(from rdma.NodeID, req []byte) ([]byte, error) {
	if err := h.activeErr(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	idx := h.nodeIndexLocked(from)
	h.mu.Unlock()
	h.flushReplication()
	w := wire.NewWriter(2)
	w.U16(idx)
	return w.Bytes(), nil
}

// handleRegister implements page_register: look up or allocate the page,
// add the caller to the PRD, and return the page's remote address plus the
// PL and PIB word addresses. When no slot is free and every page is
// referenced, the holders are asked for idle registrations (reclaim) and
// the allocation is tried once more.
func (h *Home) handleRegister(from rdma.NodeID, req []byte) ([]byte, error) {
	if err := h.activeErr(); err != nil {
		return nil, err
	}
	rd := wire.NewReader(req)
	page := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	// Reply only after the slave mirrors this op (deferred calls run
	// last-in first-out: the flush follows the unlock).
	defer h.flushReplication()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.met.registers.Inc()
	e, exists, err := h.registerLocked(from, page)
	if errors.Is(err, ErrOutOfMemory) {
		h.mu.Unlock()
		h.reclaim()
		h.mu.Lock()
		e, exists, err = h.registerLocked(from, page)
	}
	if exists {
		h.met.hits.Inc()
	} else {
		h.met.misses.Inc()
	}
	if err != nil {
		return nil, err
	}
	resp := wire.NewWriter(64)
	resp.Bool(exists)
	resp.String(string(e.slab.node))
	resp.U32(e.slab.region)
	resp.U64(e.slab.addr(e.slot).Off)
	resp.U32(h.tab.meta.ID())
	resp.U64(e.slotOff)
	resp.U16(h.tab.nodeIdx[from])
	return resp.Bytes(), nil
}

// registerLocked adds from to the page's PRD, allocating the page a slot
// (evicting LRU pages if it must) if the pool does not hold it.
func (h *Home) registerLocked(from rdma.NodeID, page types.PageID) (*patEntry, bool, error) {
	delete(h.kicked, from) // a registering node is alive by definition
	h.nodeIndexLocked(from)
	if e, ok := h.tab.pat[page.Key()]; ok {
		h.mutate(homeOp{kind: replOpAddRef, page: page, node: from})
		return e, true, nil
	}
	if len(h.tab.metaFree) == 0 {
		return nil, false, ErrMetaFull
	}
	slab, slot, err := h.allocateLocked()
	if err != nil {
		return nil, false, err
	}
	h.mutate(homeOp{kind: replOpRegister, page: page, slab: slab, slot: slot,
		slotOff: h.tab.metaFree[len(h.tab.metaFree)-1], node: from})
	return h.tab.pat[page.Key()], false, nil
}

// reclaim asks every live holder to give up its oldest unregisterBatch
// idle registrations, one cb.reclaim each (the caller of the register
// that found the pool full included). A holder sends the pages' unreg
// before it answers, so on return they are on the LRU. Called without
// h.mu: the callbacks call back in.
func (h *Home) reclaim() {
	h.mu.Lock()
	holders := map[rdma.NodeID]bool{}
	for _, e := range h.tab.pat {
		for n := range e.refs {
			holders[n] = true
		}
	}
	h.mu.Unlock()
	w := wire.NewWriter(4)
	w.U32(unregisterBatch)
	reqs := make(map[rdma.NodeID][]byte, len(holders))
	for n := range holders {
		reqs[n] = w.Bytes()
	}
	replies := h.callHolders("cb.reclaim", reqs)
	h.met.reclaims.Add(uint64(len(replies)))
	for _, resp := range replies {
		rd := wire.NewReader(resp)
		if freed := rd.U32(); rd.Err() == nil {
			h.met.reclaimed.Add(uint64(freed))
		}
	}
}

// handleUnregister implements page_unregister for a batch of a node's
// idle registrations (reclaimed, or flushed): drop the caller's reference
// on each, oldest first; at refcount 0 a page becomes evictable (LRU).
func (h *Home) handleUnregister(from rdma.NodeID, req []byte) ([]byte, error) {
	if err := h.activeErr(); err != nil {
		return nil, err
	}
	rd := wire.NewReader(req)
	pages := readPages(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	defer h.flushReplication() // after the unlock below (LIFO)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, page := range pages {
		if _, ok := h.tab.pat[page.Key()]; ok { // else already evicted
			h.mutate(homeOp{kind: replOpUnref, page: page, node: from})
		}
	}
	return nil, nil
}

// handleInvalidate implements page_invalidate (§3.1.4, Figure 6) for a
// batch of pages: set the home PIB bit on each, look up the PRDs, and
// synchronously set the local PIB bits on every other node holding a
// copy. The callbacks are grouped per destination node — one cb.inv RPC
// carries every invalidated page a holder references, so an MTR commit
// costs one round trip per distinct holder instead of one per
// (page, holder) pair. Unresponsive nodes are kicked so the invalidation
// always completes.
func (h *Home) handleInvalidate(from rdma.NodeID, req []byte) ([]byte, error) {
	if err := h.activeErr(); err != nil {
		return nil, err
	}
	rd := wire.NewReader(req)
	pages := readPages(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	defer h.flushReplication()
	h.mu.Lock()
	holders := map[rdma.NodeID][]types.PageID{}
	tell := func(e *patEntry) {
		for n := range e.refs {
			if n != from {
				holders[n] = append(holders[n], e.page)
			}
		}
	}
	for _, page := range pages {
		for d := range h.purging {
			if d.page == page {
				tell(d)
			}
		}
		if e, ok := h.tab.pat[page.Key()]; ok { // else not cached remotely
			h.met.invalidations.Inc()
			h.mutate(homeOp{kind: replOpInvalidate, page: page})
			tell(e)
		}
	}
	h.mu.Unlock()
	h.met.invFanout.Add(uint64(len(holders)))
	h.notifyHolders("cb.inv", holders)
	return nil, nil
}

// HandleSlabFailure processes a slab node crash (§5.2): the node's slabs
// leave the pool and the pages on them are purged, so holders fall back to
// storage (or, on the RW, keep their own copy).
func (h *Home) HandleSlabFailure(node rdma.NodeID) {
	h.mu.Lock()
	for key := range h.tab.slabs {
		if key.node == node {
			h.mutate(homeOp{kind: replOpFreeSlab, slab: key})
		}
	}
	h.mu.Unlock()
	h.purge(h.slabGone)
}

// slabGone reports whether e's slab has left the pool (h.mu held).
func (h *Home) slabGone(e *patEntry) bool {
	_, ok := h.tab.slabs[e.slab]
	return !ok
}

// purge is the one way a page that nodes may still map leaves the pool:
// slab failure, Shrink and the RW takeover all call it, for every PAT
// entry doomed picks (under h.mu). Three steps. Under h.mu each entry is
// detached: it leaves the PAT and its PIB reads stale, but its slab slot
// and metadata slot stay taken. With h.mu released, each holder gets one
// cb.slabfail carrying its whole page list; an unreachable holder is
// kicked, like a dead one. Only then do the slots go back to the free
// lists. A holder that has not handled its callback yet therefore probes a
// stale PIB, at an address no other page has been given, and hears of
// every invalidation of the page meanwhile (handleInvalidate). The pages
// purged are returned.
func (h *Home) purge(doomed func(*patEntry) bool) []types.PageID {
	h.mu.Lock()
	var gone []*patEntry
	var pages []types.PageID
	holders := map[rdma.NodeID][]types.PageID{}
	for _, e := range h.tab.pat {
		if !doomed(e) {
			continue
		}
		for n := range e.refs {
			holders[n] = append(holders[n], e.page)
		}
		h.mutate(homeOp{kind: replOpDetach, page: e.page})
		h.purging[e] = true
		gone = append(gone, e)
		pages = append(pages, e.page)
	}
	h.met.evictions.Add(uint64(len(gone)))
	h.mu.Unlock()
	h.flushReplication()
	h.notifyHolders("cb.slabfail", holders)
	h.mu.Lock()
	for _, e := range gone {
		delete(h.purging, e)
		h.mutate(homeOp{kind: replOpRelease, slab: e.slab, slot: e.slot, slotOff: e.slotOff})
	}
	h.mu.Unlock()
	h.flushReplication()
	return pages
}
