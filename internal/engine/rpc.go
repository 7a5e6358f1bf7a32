package engine

import (
	"encoding/binary"

	"polardb/internal/rdma"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// handleFlushPage serves an RO node's request to write a page this RW
// holds dirty back to remote memory (so the RO can read a fresh copy).
// Replies 1 if the page was written back, 0 if this node has no local
// copy (storage is then authoritative).
func (e *Engine) handleFlushPage(from rdma.NodeID, req []byte) ([]byte, error) {
	if len(req) < 8 {
		return nil, txn.ErrBadRecord
	}
	id := types.PageID{
		Space: types.SpaceID(binary.LittleEndian.Uint32(req[0:])),
		No:    types.PageNo(binary.LittleEndian.Uint32(req[4:])),
	}
	f := e.cache.Get(id)
	if f == nil {
		// If the page is mid-eviction its write-back is in flight; once it
		// finishes, the remote copy is fresh and the caller can use it.
		e.cache.WaitEvicting(id)
		return []byte{0}, nil
	}
	defer f.Unpin()
	if !f.Remote.Registered {
		return []byte{0}, nil
	}
	e.met.flushServed.Inc()
	// A frame modified by a still-open mini-transaction must not be
	// shipped: its bytes may reference the MTR's other pages (e.g. a data
	// row pointing at a new undo record) whose remote copies are not yet
	// invalidated, so the caller could assemble a torn view (§3.1.4,
	// invalidate-then-publish). Wait for the MTR to release. The check
	// runs under the frame latch: LogWrite both applies bytes and takes
	// the mtr-pin while holding it exclusively, so a clear pin count
	// means no uncommitted bytes can be in the copy below.
	for {
		f.Latch.RLock()
		if !f.MtrPinned() {
			break
		}
		f.Latch.RUnlock()
		e.mtrMu.Lock()
		for f.MtrPinned() {
			e.mtrCond.Wait()
		}
		e.mtrMu.Unlock()
	}
	err := e.pool.WritePage(f.Remote.Data, f.Data, f.Remote.PIB)
	f.Latch.RUnlock()
	if err != nil {
		return nil, err
	}
	f.ClearDirty()
	return []byte{1}, nil
}
