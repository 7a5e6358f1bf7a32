package rmem

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// metaSlotSize is the per-page metadata footprint in the home's registered
// region: an 8-byte PL latch word followed by an 8-byte PIB word.
const metaSlotSize = 16

// pibStale / pibFresh are the PIB word values. A stale page's remote copy
// is older than the RW node's local copy.
const (
	pibFresh = uint64(0)
	pibStale = uint64(1)
)

type slabKey struct {
	node   rdma.NodeID
	region uint32
}

type slabInfo struct {
	key   slabKey
	pages int
	free  []int // free slot indexes
}

type patEntry struct {
	page    types.PageID
	slab    slabKey
	slot    int
	slotOff uint64 // metadata slot offset in home's meta region
	refs    map[rdma.NodeID]bool
	lruElem *list.Element // non-nil while refcount == 0
}

// Home is the home node of a remote memory pool instance: the slab node
// holding the first slab plus the instance-wide metadata (PAT, PIB, PRD,
// PLT) and the control plane for growth, shrink and failure handling.
type Home struct {
	ep   *rdma.Endpoint
	cfg  Config
	meta *rdma.Region

	mu       sync.Mutex
	pat      map[uint64]*patEntry
	slabs    map[slabKey]*slabInfo
	slabList []*slabInfo
	lru      *list.List // *patEntry with refcount 0; front = oldest
	metaFree []uint64
	nodes    []rdma.NodeID // node index -> id (owner index in PL words)
	nodeIdx  map[rdma.NodeID]uint16
	kicked   map[rdma.NodeID]bool
	passive  bool // slave: no client traffic until promoted

	slaveMu sync.Mutex
	slave   rdma.NodeID

	// Replication queue (replication.go): mutations mirrored to the slave
	// are enqueued under h.mu but sent by replSender with no lock held, so
	// the control plane never stalls behind slave fabric latency.
	replMu   sync.Mutex
	replCond *sync.Cond
	replQ    [][]byte
	replSeq  uint64 // ops enqueued
	replDone uint64 // ops sent (or dropped)
	replStop bool

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
}

func newHomeMetrics(r *stat.Registry) homeMetrics {
	return homeMetrics{
		registers:     r.Counter("rmem.home.registers"),
		hits:          r.Counter("rmem.home.hits"),
		misses:        r.Counter("rmem.home.misses"),
		evictions:     r.Counter("rmem.home.evictions"),
		invalidations: r.Counter("rmem.home.invalidations"),
		invFanout:     r.Counter("rmem.home.inv_fanout"),
	}
}

// NewHome starts a home node on ep. slave, if non-empty, names a passive
// replica home that receives every metadata mutation synchronously.
func NewHome(ep *rdma.Endpoint, cfg Config, slave rdma.NodeID) *Home {
	cfg.applyDefaults()
	h := &Home{
		ep:      ep,
		cfg:     cfg,
		meta:    ep.RegisterRegion(cfg.MetaSlots * metaSlotSize),
		pat:     make(map[uint64]*patEntry),
		slabs:   make(map[slabKey]*slabInfo),
		lru:     list.New(),
		nodeIdx: make(map[rdma.NodeID]uint16),
		kicked:  make(map[rdma.NodeID]bool),
		slave:   slave,
		met:     newHomeMetrics(ep.Metrics()),
		closeCh: make(chan struct{}),
	}
	h.replCond = sync.NewCond(&h.replMu)
	for i := cfg.MetaSlots - 1; i >= 0; i-- {
		h.metaFree = append(h.metaFree, uint64(i*metaSlotSize))
	}
	ep.RegisterHandler(cfg.method("hello"), h.handleHello)
	ep.RegisterHandler(cfg.method("reg"), h.handleRegister)
	ep.RegisterHandler(cfg.method("unreg"), h.handleUnregister)
	ep.RegisterHandler(cfg.method("inv"), h.handleInvalidate)
	ep.RegisterHandler(cfg.method("pl.slow"), h.handlePLSlow)
	ep.RegisterHandler(cfg.method("pl.releasenode"), h.handlePLReleaseNode)
	ep.RegisterHandler(cfg.method("repl"), h.handleReplicate)
	ep.RegisterHandler(cfg.method("scan"), h.handleScan)
	ep.RegisterHandler(cfg.method("droprefs"), h.handleDropRefs)
	ep.RegisterHandler(cfg.method("forceevict"), h.handleForceEvict)
	h.wg.Add(1)
	go h.replSender()
	h.wg.Add(1)
	go h.backgroundEvictor()
	if cfg.SlabHeartbeat > 0 {
		h.wg.Add(1)
		go h.slabHeartbeat()
	}
	return h
}

// slabHeartbeat detects slab node failures (§5.2): the home pings every
// node hosting slabs; after SlabHeartbeatMisses consecutive misses the
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
		if h.passiveNow() {
			continue
		}
		h.mu.Lock()
		nodes := map[rdma.NodeID]bool{}
		for key := range h.slabs {
			nodes[key.node] = true
		}
		h.mu.Unlock()
		for n := range nodes {
			if n == h.ep.ID() {
				continue // the home's own slabs share its fate
			}
			//polarvet:allow fabriccost liveness probes are inherently one per slab node per tick; batching across destinations is impossible
			if _, err := h.ep.CallTimeout(n, h.cfg.method("slab.ping"), nil, h.cfg.SlabHeartbeat); err != nil {
				misses[n]++
				if misses[n] >= h.cfg.SlabHeartbeatMisses {
					delete(misses, n)
					h.HandleSlabFailure(n)
				}
			} else {
				misses[n] = 0
			}
		}
	}
}

func (h *Home) passiveNow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.passive
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
	for _, e := range h.pat {
		h.meta.MustStore64Local(e.slotOff+8, pibStale)
	}
	h.mu.Unlock()
}

// Close stops the home's background goroutines, draining any queued
// replication first.
func (h *Home) Close() {
	close(h.closeCh)
	h.replMu.Lock()
	h.replStop = true
	h.replCond.Broadcast()
	h.replMu.Unlock()
	h.wg.Wait()
}

// Endpoint returns the home's fabric endpoint.
func (h *Home) Endpoint() *rdma.Endpoint { return h.ep }

// MetaRegionID returns the id of the RDMA-registered metadata region
// (clients build PL/PIB addresses from it).
func (h *Home) MetaRegionID() uint32 { return h.meta.ID() }

// Stats returns an occupancy snapshot.
func (h *Home) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	var s Stats
	for _, sl := range h.slabs {
		s.Slabs++
		s.TotalSlots += sl.pages
		s.FreeSlots += len(sl.free)
	}
	s.UsedSlots = len(h.pat)
	for _, e := range h.pat {
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

// kickNode marks a node dead and strips its references everywhere.
func (h *Home) kickNode(n rdma.NodeID) {
	h.mu.Lock()
	if h.kicked[n] {
		h.mu.Unlock()
		return
	}
	h.kicked[n] = true
	for _, e := range h.pat {
		if e.refs[n] {
			delete(e.refs, n)
			if len(e.refs) == 0 && e.lruElem == nil {
				e.lruElem = h.lru.PushBack(e)
			}
		}
	}
	h.mu.Unlock()
	if h.cfg.OnUnresponsive != nil {
		h.cfg.OnUnresponsive(n)
	}
}

// nodeIndex assigns (or returns) the small integer index for a node id,
// used as the owner field in PL words.
func (h *Home) nodeIndex(n rdma.NodeID) uint16 {
	if idx, ok := h.nodeIdx[n]; ok {
		return idx
	}
	idx := uint16(len(h.nodes))
	h.nodes = append(h.nodes, n)
	h.nodeIdx[n] = idx
	return idx
}

// AddSlab asks a slab node to create a slab of `pages` pages and adds it
// to the pool. Returns the new total slot count.
func (h *Home) AddSlab(node rdma.NodeID, pages int) (int, error) {
	if pages <= 0 {
		pages = h.cfg.SlabPages
	}
	w := wire.NewWriter(8)
	w.U32(uint32(pages))
	//polarvet:allow fabriccost slab.create mutates the slab node's allocator (mmap + region registration); the response layout is fixed but the work is remote-CPU by nature
	resp, err := h.ep.Call(node, h.cfg.method("slab.create"), w.Bytes())
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
	h.addSlabLocked(slabKey{node, region}, got)
	total := 0
	for _, sl := range h.slabs {
		total += sl.pages
	}
	h.mu.Unlock()
	h.replicate(replAddSlab(node, region, got))
	h.flushReplication()
	return total, nil
}

func (h *Home) addSlabLocked(key slabKey, pages int) {
	sl := &slabInfo{key: key, pages: pages}
	for i := pages - 1; i >= 0; i-- {
		sl.free = append(sl.free, i)
	}
	h.slabs[key] = sl
	h.slabList = append(h.slabList, sl)
}

// TotalSlots returns the pool capacity in pages.
func (h *Home) TotalSlots() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for _, sl := range h.slabs {
		total += sl.pages
	}
	return total
}

// Shrink reduces the pool capacity to at most targetSlots (at least one
// slab is always kept): unreferenced pages are evicted via LRU, and
// referenced pages in victim slabs are migrated to the retained slabs to
// defragment (§3.1.2: "pages are migrated in the background to
// defragment, and unused slabs are released"). Holders of migrated pages
// are notified to drop their stale remote addresses and re-register.
func (h *Home) Shrink(targetSlots int) (int, error) {
	h.mu.Lock()
	total := func() int {
		t := 0
		for _, sl := range h.slabs {
			t += sl.pages
		}
		return t
	}
	releaseEmpty := func() {
		for total() > targetSlots && len(h.slabs) > 1 {
			var victim *slabInfo
			for _, sl := range h.slabs {
				if len(sl.free) == sl.pages {
					victim = sl
					break
				}
			}
			if victim == nil {
				return
			}
			h.removeSlabLocked(victim.key)
		}
	}
	// Phase 1: LRU-evict unreferenced pages, releasing drained slabs.
	releaseEmpty()
	for total() > targetSlots && h.lru.Len() > 0 {
		h.evictLocked(h.lru.Front().Value.(*patEntry))
		releaseEmpty()
	}
	// Phase 2: defragment (§3.1.2). The emptiest slab's surviving pages —
	// all referenced, or phase 1 would have drained them — are migrated
	// into free slots of the retained slabs and the emptied slab is
	// released. Holders are notified (cb.slabfail) to drop their stale
	// remote addresses and re-register on next access. A slab whose pages
	// do not fit elsewhere is kept: referenced pages pin their slab, and
	// Shrink returns the capacity it achieved.
	for total() > targetSlots && len(h.slabs) > 1 {
		var victim *slabInfo
		freeElsewhere := 0
		for _, sl := range h.slabList {
			used := sl.pages - len(sl.free)
			if victim == nil || used < victim.pages-len(victim.free) {
				victim = sl
			}
		}
		for _, sl := range h.slabList {
			if sl != victim {
				freeElsewhere += len(sl.free)
			}
		}
		if victim == nil || victim.pages-len(victim.free) > freeElsewhere {
			break
		}
		// Reserve a destination slot per page (best-fit: fullest slab
		// first, matching allocateLocked) and mark the page stale so no
		// holder trusts bytes we may copy mid-write.
		type migration struct {
			e       *patEntry
			dst     slabKey
			dstSlot int
		}
		var moves []migration
		for _, e := range h.pat {
			if e.slab != victim.key {
				continue
			}
			var dst *slabInfo
			for _, sl := range h.slabList {
				if sl == victim || len(sl.free) == 0 {
					continue
				}
				if dst == nil || len(sl.free) < len(dst.free) {
					dst = sl
				}
			}
			slot := dst.free[len(dst.free)-1]
			dst.free = dst.free[:len(dst.free)-1]
			h.meta.MustStore64Local(e.slotOff+8, pibStale)
			moves = append(moves, migration{e, dst.key, slot})
		}
		// Detach the victim before releasing h.mu so concurrent
		// registrations cannot allocate into it mid-migration. Its region
		// stays live on the slab node until removeSlabLocked frees it.
		delete(h.slabs, victim.key)
		for i, sl := range h.slabList {
			if sl == victim {
				h.slabList = append(h.slabList[:i], h.slabList[i+1:]...)
				break
			}
		}
		h.mu.Unlock()
		// Copy page bytes with one-sided verbs, h.mu released: fabric
		// latency must not stall the control plane.
		buf := make([]byte, types.PageSize)
		failed := map[*patEntry]bool{}
		for _, mv := range moves {
			src := rdma.Addr{Node: victim.key.node, Region: victim.key.region, Off: uint64(mv.e.slot) * types.PageSize}
			dst := rdma.Addr{Node: mv.dst.node, Region: mv.dst.region, Off: uint64(mv.dstSlot) * types.PageSize}
			if err := h.ep.Read(src, buf); err != nil {
				failed[mv.e] = true
				continue
			}
			if err := h.ep.Write(dst, buf); err != nil {
				failed[mv.e] = true
			}
		}
		h.mu.Lock()
		holders := map[rdma.NodeID][]types.PageID{}
		for _, mv := range moves {
			e := mv.e
			for n := range e.refs {
				holders[n] = append(holders[n], e.page)
			}
			if failed[e] || len(e.refs) == 0 {
				// Slab node died mid-copy (page is reconstructible from
				// storage, log-before-page) or the last holder left while
				// we copied: drop the page and return the reserved slot.
				if sl, ok := h.slabs[mv.dst]; ok {
					sl.free = append(sl.free, mv.dstSlot)
				}
				h.evictLocked(e)
				continue
			}
			e.slab, e.slot = mv.dst, mv.dstSlot
			// Mirror the move on the slave as evict + re-register.
			h.replicate(replEvict(e.page))
			firstRef := true
			for n := range e.refs {
				if firstRef {
					h.replicate(replRegister(e.page, e.slab, e.slot, n))
					firstRef = false
				} else {
					h.replicate(replAddRef(e.page, n))
				}
			}
		}
		h.removeSlabLocked(victim.key)
		h.mu.Unlock()
		h.notifyHolders("cb.slabfail", holders)
		h.mu.Lock()
	}
	t := total()
	h.mu.Unlock()
	h.flushReplication()
	return t, nil
}

func (h *Home) removeSlabLocked(key slabKey) {
	delete(h.slabs, key)
	for i, sl := range h.slabList {
		if sl.key == key {
			h.slabList = append(h.slabList[:i], h.slabList[i+1:]...)
			break
		}
	}
	// Free the slab node's memory asynchronously; holding h.mu across an
	// RPC to a possibly-dead node would stall the pool.
	go func() {
		w := wire.NewWriter(8)
		w.U32(key.region)
		//polarvet:allow errdrop best-effort free to a possibly-dead slab node; its memory dies with it and the PAT no longer references the region
		_, _ = h.ep.Call(key.node, h.cfg.method("slab.free"), w.Bytes()) //polarvet:allow fabriccost slab.free tears down the slab node's allocator state; a one-sided write cannot unregister a region
	}()
	h.replicate(replFreeSlab(key.node, key.region))
}

// allocateLocked finds a free slot, evicting LRU unreferenced pages if
// necessary. Thanks to page materialization offloading, even dirty pages
// can be evicted instantaneously without flushing to storage.
func (h *Home) allocateLocked() (slabKey, int, error) {
	for {
		// Best-fit: pack into the fullest slab with space, so shrink finds
		// drainable slabs instead of allocations spread across all of them.
		var best *slabInfo
		for _, sl := range h.slabList {
			if len(sl.free) > 0 && (best == nil || len(sl.free) < len(best.free)) {
				best = sl
			}
		}
		if best != nil {
			slot := best.free[len(best.free)-1]
			best.free = best.free[:len(best.free)-1]
			return best.key, slot, nil
		}
		if h.lru.Len() == 0 {
			return slabKey{}, 0, ErrOutOfMemory
		}
		h.evictLocked(h.lru.Front().Value.(*patEntry))
	}
}

// evictLocked removes an unreferenced page from the pool.
func (h *Home) evictLocked(e *patEntry) {
	if e.lruElem != nil {
		h.lru.Remove(e.lruElem)
		e.lruElem = nil
	}
	delete(h.pat, e.page.Key())
	if sl, ok := h.slabs[e.slab]; ok {
		sl.free = append(sl.free, e.slot)
	}
	// Reset the metadata slot before reuse.
	h.meta.MustStore64Local(e.slotOff, 0)
	h.meta.MustStore64Local(e.slotOff+8, pibStale)
	h.metaFree = append(h.metaFree, e.slotOff)
	h.met.evictions.Inc()
	h.replicate(replEvict(e.page))
}

// backgroundEvictor keeps free slots above the low-water mark so that
// foreground registrations rarely pay eviction cost.
func (h *Home) backgroundEvictor() {
	defer h.wg.Done()
	if h.cfg.FreeLowWater <= 0 {
		return
	}
	for {
		select {
		case <-h.closeCh:
			return
		case <-time.After(h.cfg.EvictInterval):
		}
		h.mu.Lock()
		total, free := 0, 0
		for _, sl := range h.slabs {
			total += sl.pages
			free += len(sl.free)
		}
		if total > 0 {
			for float64(free)/float64(total) < h.cfg.FreeLowWater && h.lru.Len() > 0 {
				h.evictLocked(h.lru.Front().Value.(*patEntry))
				free++
			}
		}
		h.mu.Unlock()
	}
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
	idx := h.nodeIndex(from)
	h.mu.Unlock()
	w := wire.NewWriter(2)
	w.U16(idx)
	return w.Bytes(), nil
}

// handleRegister implements page_register: look up or allocate the page,
// add the caller to the PRD, and return the page's remote address plus the
// PL and PIB word addresses.
func (h *Home) handleRegister(from rdma.NodeID, req []byte) ([]byte, error) {
	if err := h.activeErr(); err != nil {
		return nil, err
	}
	rd := wire.NewReader(req)
	page := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	noAlloc := false
	if rd.Remaining() > 0 {
		noAlloc = rd.Bool()
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	// Reply only after the slave mirrors this op (flush runs after the
	// unlock below: deferred calls run last-in first-out).
	defer h.flushReplication()
	h.mu.Lock()
	h.met.registers.Inc()
	delete(h.kicked, from) // a registering node is alive by definition
	idx := h.nodeIndex(from)
	k := page.Key()
	e, exists := h.pat[k]
	if !exists && noAlloc {
		// Cache-pollution guard (§3.1.3): a scan checks for an existing
		// remote copy but never allocates one.
		h.met.misses.Inc()
		h.mu.Unlock()
		resp := wire.NewWriter(8)
		resp.Bool(false)
		resp.String("")
		resp.U32(0)
		resp.U64(0)
		resp.U32(h.meta.ID())
		resp.U64(0)
		resp.U16(idx)
		return resp.Bytes(), nil
	}
	if exists {
		h.met.hits.Inc()
		if e.lruElem != nil {
			h.lru.Remove(e.lruElem)
			e.lruElem = nil
		}
		e.refs[from] = true
	} else {
		h.met.misses.Inc()
		if len(h.metaFree) == 0 {
			h.mu.Unlock()
			return nil, ErrMetaFull
		}
		slab, slot, err := h.allocateLocked()
		if err != nil {
			h.mu.Unlock()
			return nil, err
		}
		slotOff := h.metaFree[len(h.metaFree)-1]
		h.metaFree = h.metaFree[:len(h.metaFree)-1]
		e = &patEntry{page: page, slab: slab, slot: slot, slotOff: slotOff,
			refs: map[rdma.NodeID]bool{from: true}}
		h.pat[k] = e
		h.meta.MustStore64Local(slotOff, 0)
		h.meta.MustStore64Local(slotOff+8, pibStale) // no data written yet
		h.replicate(replRegister(page, e.slab, e.slot, from))
	}
	if exists {
		h.replicate(replAddRef(page, from))
	}
	resp := wire.NewWriter(64)
	resp.Bool(exists)
	resp.String(string(e.slab.node))
	resp.U32(e.slab.region)
	resp.U64(uint64(e.slot) * types.PageSize)
	resp.U32(h.meta.ID())
	resp.U64(e.slotOff)
	resp.U16(idx)
	h.mu.Unlock()
	return resp.Bytes(), nil
}

// handleUnregister implements page_unregister: drop the caller's reference;
// at refcount 0 the page becomes evictable (LRU).
func (h *Home) handleUnregister(from rdma.NodeID, req []byte) ([]byte, error) {
	if err := h.activeErr(); err != nil {
		return nil, err
	}
	rd := wire.NewReader(req)
	page := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	defer h.flushReplication() // after the unlock below (LIFO)
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.pat[page.Key()]
	if !ok {
		return nil, nil // already evicted
	}
	delete(e.refs, from)
	if len(e.refs) == 0 && e.lruElem == nil {
		e.lruElem = h.lru.PushBack(e)
	}
	h.replicate(replUnref(page, from))
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
	pages := make([]types.PageID, int(rd.U32()))
	for i := range pages {
		pages[i] = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	defer h.flushReplication()
	h.mu.Lock()
	holders := map[rdma.NodeID][]types.PageID{}
	for _, page := range pages {
		e, ok := h.pat[page.Key()]
		if !ok {
			continue // not cached remotely: nothing to invalidate
		}
		h.met.invalidations.Inc()
		h.meta.MustStore64Local(e.slotOff+8, pibStale)
		for n := range e.refs {
			if n != from {
				holders[n] = append(holders[n], page)
			}
		}
		h.replicate(replInvalidate(page))
	}
	h.mu.Unlock()
	h.met.invFanout.Add(uint64(len(holders)))
	h.notifyHolders("cb.inv", holders)
	return nil, nil
}

// HandleSlabFailure processes a slab node crash (§5.2): every page on that
// node's slabs is dropped from the PAT; holders are told so they fall back
// to storage (or re-register from the RW's local cache).
func (h *Home) HandleSlabFailure(node rdma.NodeID) {
	h.mu.Lock()
	var lost []*patEntry
	for _, e := range h.pat {
		if e.slab.node == node {
			lost = append(lost, e)
		}
	}
	holders := make(map[rdma.NodeID][]types.PageID)
	for _, e := range lost {
		for n := range e.refs {
			holders[n] = append(holders[n], e.page)
		}
		if e.lruElem != nil {
			h.lru.Remove(e.lruElem)
			e.lruElem = nil
		}
		delete(h.pat, e.page.Key())
		h.meta.MustStore64Local(e.slotOff, 0)
		h.meta.MustStore64Local(e.slotOff+8, pibStale)
		h.metaFree = append(h.metaFree, e.slotOff)
		h.replicate(replEvict(e.page))
	}
	// Remove the dead node's slabs from the pool.
	for key := range h.slabs {
		if key.node == node {
			delete(h.slabs, key)
			for i, sl := range h.slabList {
				if sl.key == key {
					h.slabList = append(h.slabList[:i], h.slabList[i+1:]...)
					break
				}
			}
			h.replicate(replFreeSlab(key.node, key.region))
		}
	}
	h.mu.Unlock()
	h.flushReplication()
	// An unreachable holder is treated as dead, like the slab node.
	h.notifyHolders("cb.slabfail", holders)
}
