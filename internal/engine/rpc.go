package engine

import (
	"encoding/binary"

	"polardb/internal/cache"
	"polardb/internal/rdma"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// handleFlushPage serves an RO node's request to write a page this RW
// holds dirty back to remote memory (so the RO can read a fresh copy).
// Replies flushWritten if the page was written back, flushNone if this
// node has no local copy (storage is then authoritative), and flushDirect
// if its copy is storage-direct or its write-back failed (the slab is
// gone), once the redo that made it has shipped.
// A storage-direct copy — the pool took its addresses, or was full — first
// registers again: an RO that reads it from storage instead may find an
// image that lags it or, with two MTRs logged out of the order they wrote
// in, differs from it.
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
		return []byte{flushNone}, nil
	}
	defer f.Unpin()
	f.Latch.RLock()
	direct := !f.Remote.Registered
	f.Latch.RUnlock()
	if direct && e.pool != nil {
		f.Latch.Lock()
		if !f.Remote.Registered {
			if res, err := e.pool.Register(id); err == nil {
				f.Remote = cache.RemoteInfo{Registered: true, Data: res.Data, PL: res.PL, PIB: res.PIB}
			}
		}
		f.Latch.Unlock()
	}
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
	if f.Remote.Registered {
		e.met.flushServed.Inc()
		if err := e.pool.WritePage(f.Remote.Data, f.Data, f.Remote.PIB); err == nil {
			f.Latch.RUnlock()
			f.ClearDirty()
			return []byte{flushWritten}, nil
		}
		// The slot is unreachable: its slab died with the home, or a
		// purge freed it.
	}
	lsn := f.NewestLSN
	f.Latch.RUnlock()
	if err := e.waitShipped(lsn); err != nil {
		return nil, err
	}
	return []byte{flushDirect}, nil
}
