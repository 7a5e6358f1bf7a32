package rmem

import (
	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// ScanEntry describes one page resident in the remote memory pool, as
// reported to a recovering RW node (§5.1 step 5: the new RW scans the
// pool, evicting pages whose invalidation bit is set and pages newer than
// the redo tail).
type ScanEntry struct {
	Page  types.PageID
	Data  rdma.Addr // one-sided address of the page data
	Stale bool      // home PIB bit
}

// Scan lists every page in the pool (home-side; also exposed via RPC).
func (h *Home) Scan() []ScanEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ScanEntry, 0, len(h.tab.pat))
	for _, e := range h.tab.pat {
		pib := h.tab.meta.MustLoad64Local(e.slotOff + 8)
		out = append(out, ScanEntry{
			Page:  e.page,
			Data:  e.slab.addr(e.slot),
			Stale: pib != pibFresh,
		})
	}
	return out
}

// ForceEvict removes a page from the pool regardless of references,
// telling reference holders that its addresses are gone. Used by RW
// recovery to purge pages that are stale or ahead of the durable redo.
func (h *Home) ForceEvict(page types.PageID) {
	h.mu.Lock()
	e, ok := h.tab.pat[page.Key()]
	if !ok {
		h.mu.Unlock()
		return
	}
	holders := make([]rdma.NodeID, 0, len(e.refs))
	for n := range e.refs {
		holders = append(holders, n)
	}
	h.evictLocked(e)
	h.mu.Unlock()
	h.flushReplication()

	// Not cb.inv: the slot and its PIB word are back on the free lists, and
	// both are LIFO, so the next registration of any page takes them and
	// clears that PIB. A holder that kept the addresses would then probe
	// "fresh" and read another page's bytes. Holders forget the addresses
	// and re-register on next access.
	h.notifyHolders("cb.slabfail", holdersOf(holders, page))
}

// DropNodeRefs removes a (dead) node from every page's reference
// directory, so its references neither pin pages nor cause invalidation
// fan-out timeouts. RW recovery calls this for the crashed node before
// scanning the pool (§5.1 step 5).
func (h *Home) DropNodeRefs(node rdma.NodeID) {
	h.kickNode(node)
}

// handleDropRefs serves DropNodeRefs over RPC.
func (h *Home) handleDropRefs(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	node := rdma.NodeID(rd.String())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	h.DropNodeRefs(node)
	return nil, nil
}

// DropNodeRefs (client side) tells the home a database node is gone.
func (p *Pool) DropNodeRefs(node rdma.NodeID) error {
	w := wire.NewWriter(16)
	w.String(string(node))
	_, err := p.ep.Call(p.Home(), method("droprefs"), w.Bytes())
	return err
}

// handleScan serves the pool scan over RPC for a remote recovery driver.
func (h *Home) handleScan(from rdma.NodeID, req []byte) ([]byte, error) {
	entries := h.Scan()
	w := wire.NewWriter(32 * len(entries))
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.U32(uint32(e.Page.Space))
		w.U32(uint32(e.Page.No))
		w.String(string(e.Data.Node))
		w.U32(e.Data.Region)
		w.U64(e.Data.Off)
		w.Bool(e.Stale)
	}
	return w.Bytes(), nil
}

// handleForceEvict serves ForceEvict over RPC.
func (h *Home) handleForceEvict(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	page := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	h.ForceEvict(page)
	return nil, nil
}

// ScanRemote lists the pool contents from a database node.
func (p *Pool) ScanRemote() ([]ScanEntry, error) {
	resp, err := p.ep.Call(p.Home(), method("scan"), nil)
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(resp)
	n := int(rd.U32())
	out := make([]ScanEntry, n)
	for i := range out {
		out[i].Page = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
		out[i].Data = rdma.Addr{Node: rdma.NodeID(rd.String()), Region: rd.U32(), Off: rd.U64()}
		out[i].Stale = rd.Bool()
	}
	return out, rd.Err()
}

// ForceEvict purges a page from the pool from a database node.
func (p *Pool) ForceEvict(page types.PageID) error {
	_, err := p.ep.Call(p.Home(), method("forceevict"), p.pageReq(page))
	return err
}
