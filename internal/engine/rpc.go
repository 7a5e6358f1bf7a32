package engine

import (
	"encoding/binary"

	"polardb/internal/rdma"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// handleFlushPage serves an RO node's request for a page whose pool copy
// is stale: the reply is this RW's image of the page, or empty if it holds
// no copy (storage is then current). A copy with a pool slot is written
// back to it as well, so later readers find the pool fresh.
func (e *Engine) handleFlushPage(from rdma.NodeID, req []byte) ([]byte, error) {
	if len(req) < 8 {
		return nil, txn.ErrBadRecord
	}
	id := types.PageID{
		Space: types.SpaceID(binary.LittleEndian.Uint32(req[0:])),
		No:    types.PageNo(binary.LittleEndian.Uint32(req[4:])),
	}
	// Get waits out a fill or an eviction of the page; an eviction waits
	// for the page's redo to ship, so with no frame left storage is current.
	f := e.cache.Get(id)
	if f == nil {
		return nil, nil
	}
	defer f.Unpin()
	// The read latch waits out an MTR that wrote the frame, which holds it
	// until its invalidations are out: the copy never carries bytes of an
	// MTR whose other pages an RO could still read stale (§3.1.4).
	f.Latch.RLock()
	img := append([]byte(nil), f.Data...)
	// A failed write-back means the slot is unreachable (its slab died
	// with the home, or a purge took it); the reply carries the page.
	e.writeBack(f)
	f.Latch.RUnlock()
	e.met.flushServed.Inc()
	return img, nil
}
