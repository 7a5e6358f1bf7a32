package rmem

import (
	"encoding/binary"

	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// ScanEntry describes one page resident in the remote memory pool, as
// RW takeover sees it (§5.1 step 5: the new RW purges pages whose
// invalidation bit is set and pages newer than the redo tail).
type ScanEntry struct {
	Page  types.PageID
	Data  rdma.Addr // one-sided address of the page data
	Stale bool      // home PIB bit

	entry *patEntry // the PAT entry described, to tell later whether it is still the one
}

// Scan lists every page in the pool.
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
			entry: e,
		})
	}
	return out
}

// Takeover is §5.1 steps 5–6 for a node becoming the RW, in one round trip
// to the home, where all the state they need lives: the crashed RW oldRW
// ("" when there is none, as in a cluster restart) is kicked out of every
// reference directory and its PL latches are released, and every pooled
// page that is stale or whose image is newer than tail, the durable redo
// tail, is purged, its holders told. It returns the purged pages, which
// only storage holds now.
//
//polarvet:fabric O(1) one takeover round trip; the pool scan, the LSN reads and the purge run at the home
func (p *Pool) Takeover(oldRW rdma.NodeID, tail types.LSN) ([]types.PageID, error) {
	w := wire.NewWriter(16 + len(oldRW))
	w.String(string(oldRW))
	w.U64(uint64(tail))
	resp, err := p.ep.Call(p.Home(), method("takeover"), w.Bytes())
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(resp)
	purged := readPages(rd)
	return purged, rd.Err()
}

// handleTakeover serves Pool.Takeover.
func (h *Home) handleTakeover(from rdma.NodeID, req []byte) ([]byte, error) {
	if err := h.activeErr(); err != nil {
		return nil, err
	}
	rd := wire.NewReader(req)
	oldRW := rdma.NodeID(rd.String())
	tail := types.LSN(rd.U64())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	purged := h.takeover(oldRW, tail)
	w := wire.NewWriter(4 + 8*len(purged))
	writePages(w, purged)
	return w.Bytes(), nil
}

// takeover kicks oldRW, sweeps its latches and purges the pool (see
// Pool.Takeover). A PIB-fresh page can still be ahead of tail — the RW
// writes a page back to serve an RO's eng.flushpage before its redo is
// flushed — so each fresh page's LSN word (its first 8 bytes) is read from
// its slab, with h.mu released; a page that cannot be read is purged. An
// entry that left the pool meanwhile is not purged: a page registered
// again is a new entry, stale from birth.
func (h *Home) takeover(oldRW rdma.NodeID, tail types.LSN) []types.PageID {
	if oldRW != "" {
		h.kickNode(oldRW)
		h.releaseNodeLatches(oldRW)
	}
	doomed := map[*patEntry]bool{}
	var hdr [8]byte
	for _, en := range h.Scan() {
		if !en.Stale {
			if err := h.ep.Read(en.Data, hdr[:]); err == nil && types.LSN(binary.LittleEndian.Uint64(hdr[:])) <= tail {
				continue
			}
		}
		doomed[en.entry] = true
	}
	return h.purge(func(e *patEntry) bool { return doomed[e] })
}
