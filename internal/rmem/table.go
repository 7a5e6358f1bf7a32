package rmem

import (
	"container/list"

	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// metaSlotSize is the per-page metadata footprint in the home's registered
// region: an 8-byte PL latch word followed by an 8-byte PIB word.
// metaSlots caps the number of pages the home can track at once.
const (
	metaSlotSize = 16
	metaSlots    = 1 << 16
)

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

// addr is the one-sided address of a page slot in the slab.
func (k slabKey) addr(slot int) rdma.Addr {
	return rdma.Addr{Node: k.node, Region: k.region, Off: uint64(slot) * types.PageSize}
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

// homeTable is the home node's replicated state machine (§3.1, §5.2): the
// PAT with its PRD reference sets, the PIB/PL words' slots, the slab
// table, the LRU of unreferenced pages, the meta-slot free list and the
// node-index table. It has no lock of its own (Home.mu guards it) and no
// policy: apply is its only mutator, run with the same op on the master,
// where Home.mutate decides the op, and on the slave, where it arrives
// over the wire. Everything else here only reads.
type homeTable struct {
	meta     *rdma.Region
	pat      map[uint64]*patEntry
	slabs    map[slabKey]*slabInfo
	slabList []*slabInfo // AddSlab order, so best-fit ties break the same way everywhere
	lru      *list.List  // *patEntry with refcount 0; front = oldest
	metaFree []uint64
	nodes    []rdma.NodeID // node index -> id (owner index in PL words)
	nodeIdx  map[rdma.NodeID]uint16
}

func newHomeTable(meta *rdma.Region) homeTable {
	t := homeTable{
		meta:    meta,
		pat:     make(map[uint64]*patEntry),
		slabs:   make(map[slabKey]*slabInfo),
		lru:     list.New(),
		nodeIdx: make(map[rdma.NodeID]uint16),
	}
	for i := metaSlots - 1; i >= 0; i-- {
		t.metaFree = append(t.metaFree, uint64(i*metaSlotSize))
	}
	return t
}

// Op kinds; the value is also the first byte of an encoded op.
const (
	replOpRegister   = iota + 1 // new PAT entry for page at slab/slot/slotOff, held by node
	replOpAddRef                // node joins page's PRD
	replOpUnref                 // node leaves page's PRD
	replOpEvict                 // unreferenced page leaves the pool: detach, then release
	replOpInvalidate            // page's PIB := stale
	replOpAddSlab               // slab joins the pool with `slot` pages
	replOpFreeSlab              // slab leaves the pool; the pages still on it are purged next
	replOpDropNode              // node leaves every PRD
	replOpAddNode               // node gets PL owner index idx
	replOpDetach                // page leaves the PAT, PIB := stale; its slots stay taken
	replOpRelease               // slab/slot and slotOff of a detached page go back to the free lists
)

// homeOp is one metadata mutation. It carries everything the master's
// decision fixed, so applying it takes no decision and the slave ends up
// with the master's exact slots, offsets and indexes.
type homeOp struct {
	kind    uint8
	page    types.PageID
	slab    slabKey
	slot    int // slot index; page count for replOpAddSlab
	slotOff uint64
	node    rdma.NodeID
	idx     uint16
}

func (t *homeTable) apply(op homeOp) {
	e := t.pat[op.page.Key()] // nil for slab and node ops
	switch op.kind {
	case replOpRegister:
		if sl, ok := t.slabs[op.slab]; ok {
			removeLast(&sl.free, op.slot)
		}
		removeLast(&t.metaFree, op.slotOff)
		t.pat[op.page.Key()] = &patEntry{page: op.page, slab: op.slab, slot: op.slot,
			slotOff: op.slotOff, refs: map[rdma.NodeID]bool{op.node: true}}
		t.resetMeta(op.slotOff) // stale: no data written yet
	case replOpAddRef:
		if e != nil {
			e.refs[op.node] = true
			t.unlinkLRU(e)
		}
	case replOpUnref:
		if e != nil {
			t.dropRef(e, op.node)
		}
	case replOpEvict:
		if e != nil {
			t.detach(e)
			t.release(e.slab, e.slot, e.slotOff)
		}
	case replOpDetach:
		if e != nil {
			t.detach(e)
		}
	case replOpRelease:
		t.release(op.slab, op.slot, op.slotOff)
	case replOpInvalidate:
		if e != nil {
			t.meta.MustStore64Local(e.slotOff+8, pibStale)
		}
	case replOpAddSlab:
		sl := &slabInfo{key: op.slab, pages: op.slot}
		for i := sl.pages - 1; i >= 0; i-- {
			sl.free = append(sl.free, i)
		}
		t.slabs[op.slab] = sl
		t.slabList = append(t.slabList, sl)
	case replOpFreeSlab:
		if sl, ok := t.slabs[op.slab]; ok {
			delete(t.slabs, op.slab)
			removeLast(&t.slabList, sl)
		}
	case replOpDropNode:
		for _, e := range t.pat {
			t.dropRef(e, op.node)
		}
	case replOpAddNode:
		for len(t.nodes) <= int(op.idx) {
			t.nodes = append(t.nodes, "")
		}
		t.nodes[op.idx] = op.node
		t.nodeIdx[op.node] = op.idx
	}
}

// detach takes e out of the PAT and the LRU and marks its PIB stale. Its
// slab slot and metadata slot stay taken, so no other page can be given
// the addresses a holder may still probe, until release.
func (t *homeTable) detach(e *patEntry) {
	t.unlinkLRU(e)
	delete(t.pat, e.page.Key())
	t.meta.MustStore64Local(e.slotOff+8, pibStale)
}

// release returns a detached page's slab slot, if the slab is still in the
// pool, and its metadata slot, with the PL word cleared and the PIB stale.
func (t *homeTable) release(slab slabKey, slot int, slotOff uint64) {
	if sl, ok := t.slabs[slab]; ok {
		sl.free = append(sl.free, slot)
	}
	t.resetMeta(slotOff)
	t.metaFree = append(t.metaFree, slotOff)
}

// dropRef removes node from e's PRD; at refcount 0 the page becomes
// evictable (LRU).
func (t *homeTable) dropRef(e *patEntry, node rdma.NodeID) {
	delete(e.refs, node)
	if len(e.refs) == 0 && e.lruElem == nil {
		e.lruElem = t.lru.PushBack(e)
	}
}

func (t *homeTable) unlinkLRU(e *patEntry) {
	if e.lruElem != nil {
		t.lru.Remove(e.lruElem)
		e.lruElem = nil
	}
}

func (t *homeTable) resetMeta(slotOff uint64) {
	t.meta.MustStore64Local(slotOff, 0)
	t.meta.MustStore64Local(slotOff+8, pibStale)
}

// removeLast deletes the last occurrence of v. The master always takes
// the final element of a free list, so there and on an in-step slave the
// search ends at once.
func removeLast[T comparable](s *[]T, v T) {
	for i := len(*s) - 1; i >= 0; i-- {
		if (*s)[i] == v {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return
		}
	}
}

// capacity returns the pool's slot count and how many of them are free.
func (t *homeTable) capacity() (total, free int) {
	for _, sl := range t.slabList {
		total += sl.pages
		free += len(sl.free)
	}
	return total, free
}

// bestFit returns the fullest slab that still has a free slot (nil if
// none), so pages pack together and Shrink finds drainable slabs instead
// of allocations spread across all of them.
func (t *homeTable) bestFit() *slabInfo {
	var best *slabInfo
	for _, sl := range t.slabList {
		if len(sl.free) > 0 && (best == nil || len(sl.free) < len(best.free)) {
			best = sl
		}
	}
	return best
}

// emptiest returns the slab with the fewest pages in use (nil if none).
func (t *homeTable) emptiest() *slabInfo {
	var best *slabInfo
	for _, sl := range t.slabList {
		if best == nil || sl.pages-len(sl.free) < best.pages-len(best.free) {
			best = sl
		}
	}
	return best
}

// oldest returns the least recently unreferenced page, nil if every page
// is referenced.
func (t *homeTable) oldest() *patEntry {
	if front := t.lru.Front(); front != nil {
		return front.Value.(*patEntry)
	}
	return nil
}

// The codec writes every field for every kind: one layout, no per-kind
// switch to keep in step with apply. Only a flushing master encodes, so a
// home without a slave never pays for it. homeOpMinBytes is an op with
// both node names empty.
func (op homeOp) encode(w *wire.Writer) {
	w.U8(op.kind)
	w.U32(uint32(op.page.Space))
	w.U32(uint32(op.page.No))
	w.String(string(op.slab.node))
	w.U32(op.slab.region)
	w.U32(uint32(op.slot))
	w.U64(op.slotOff)
	w.String(string(op.node))
	w.U16(op.idx)
}

const homeOpMinBytes = 1 + 4 + 4 + 4 + 4 + 4 + 8 + 4 + 2

func decodeHomeOp(rd *wire.Reader) homeOp {
	return homeOp{
		kind:    rd.U8(),
		page:    types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())},
		slab:    slabKey{node: rdma.NodeID(rd.String()), region: rd.U32()},
		slot:    int(rd.U32()),
		slotOff: rd.U64(),
		node:    rdma.NodeID(rd.String()),
		idx:     rd.U16(),
	}
}
