package engine

import (
	"fmt"

	"polardb/internal/cache"
	"polardb/internal/plog"
	"polardb/internal/polarfs"
	"polardb/internal/rdma"
	"polardb/internal/txn"
	"polardb/internal/types"
)

func (e *Engine) newBufferAt(start types.LSN) *plog.Buffer {
	b := plog.NewBuffer(start)
	b.AttachMetrics(e.ep.Metrics())
	return b
}

// Recover turns this engine into the serving RW after a failover (§5.1).
// oldRW is the failed node ("" after a cluster restart: there is none);
// planned skips the steps a clean handover already performed. The cluster
// manager has already fenced the old RW (steps 1-2) before calling this.
//
// Steps (unplanned):
//
//	3-4. parallel REDO: collect the checkpoint from the page chunks, read
//	     redo from the log chunks and distribute it — the REDO phase runs
//	     concurrently on all page chunk nodes, not on this node.
//	5-6. one takeover call to the memory pool's home (rmem.Pool.Takeover):
//	     it drops the old RW's page references, force-releases every PL
//	     latch it held, and evicts the pages whose invalidation bit is set
//	     or whose version exceeds the durable redo tail. An error fails
//	     recovery: a page left in the pool ahead of the tail would read as
//	     current.
//	7.   scan the undo header to rebuild the active transaction table.
//	8.   start serving.
//	9.   in the background: roll back unfinished transactions, and fetch
//	     the pages step 5 purged back from storage.
//
// A planned switch adopts the unfinished transactions instead of rolling
// them back, and returns them keyed by transaction id, for the proxy to
// rebind to sessions; otherwise the map is nil.
func (e *Engine) Recover(oldRW rdma.NodeID, planned bool) (map[types.TrxID]*Txn, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	// Steps 3-4: parallel REDO on the storage fleet.
	_, tail, err := e.pfs.ParallelRedo()
	if err != nil {
		return nil, fmt.Errorf("engine: parallel redo: %w", err)
	}
	e.buf = e.newBufferAt(tail) // durable and shipped up to the tail
	e.cts.PublishLSN(tail)

	var purged []types.PageID // what step 5 took out of the pool
	if e.pool != nil && !planned {
		// Steps 5-6, one round trip: the home drops the crashed RW's page
		// references and latches, and purges the pages that are stale or
		// ahead of the durable redo. Everything that survives is
		// byte-consistent with storage, so the hot working set stays warm;
		// what does not is the part of it the old RW was writing, and is
		// fetched again in the background once this node serves (step 9).
		if purged, err = e.pool.Takeover(oldRW, tail); err != nil {
			return nil, fmt.Errorf("engine: taking over the remote memory pool: %w", err)
		}
	}

	// Step 7: rebuild transaction state from the undo header.
	hdrPage, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		return nil, err
	}
	hdrPage.Latch.RLock()
	unfinished := txn.ScanUnfinished(hdrPage.Data)
	maxTrx := txn.MaxTrxID(hdrPage.Data)
	watermark := txn.CTSWatermark(hdrPage.Data)
	hdrPage.Latch.RUnlock()
	e.Unpin(hdrPage)

	e.nextTrx.Store(uint64(maxTrx))
	e.cts.SetCounter(watermark + 1)

	// Unfinished transactions stay slot owners, listed in every view
	// (invisible to all of them), until their background rollback
	// completes, or, adopted, until they finish. This is the region's first
	// view: no RO node is pointed here before it.
	e.activeMu.Lock()
	for slot, u := range unfinished {
		e.slotOwner[slot] = u.Trx
	}
	e.publishViewLocked()
	e.activeMu.Unlock()

	// Step 8: serve.
	e.start()

	if planned {
		// Planned switch (§3.5): transaction state lives in shared memory
		// (undo chains, slot table), so in-flight transactions are adopted
		// by the new RW instead of being rolled back — the proxy resumes
		// them from their latest savepoint.
		return e.adoptUnfinished(unfinished)
	}

	// Step 9: what step 5 purged is what the crashed RW had modified and
	// not written back — the rows the clients were writing, which their
	// retried transactions ask for first — and storage is the only place
	// left to read it from, a PolarFS read per page. Left to the
	// transactions, those reads happen one after the other inside the first
	// statements this node serves; handed to the warmer they overlap each
	// other and the proxy's retry pause.
	e.warm(purged)

	// Step 9, continued: background rollback.
	if len(unfinished) > 0 {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for slot, u := range unfinished {
				_ = e.rollbackChain(u.Trx, u.LastUndoPage, u.LastUndoOff, slot)
				e.activeMu.Lock()
				e.retireLocked(u.Trx, slot)
				e.activeMu.Unlock()
			}
		}()
	}
	return nil, nil
}

// adoptUnfinished rebuilds live Txn handles for the unfinished
// transactions found at planned takeover, keyed by slot: their undo chains
// are walked to re-acquire row locks and rebuild the touched-key set, and
// their CTS log slots are re-claimed as active. Adopted transactions get a
// fresh read view (their original snapshot died with the old node's
// memory).
func (e *Engine) adoptUnfinished(unfinished map[int]txn.TxnSlot) (map[types.TrxID]*Txn, error) {
	adopted := make(map[types.TrxID]*Txn, len(unfinished))
	for slot, u := range unfinished {
		t := &Txn{e: e, id: u.Trx, slot: slot, lastPg: u.LastUndoPage, lastOff: u.LastUndoOff}
		// Walk the undo chain to rediscover what the txn touched.
		pg, off := u.LastUndoPage, u.LastUndoOff
		for pg != 0 {
			ur, err := e.readUndo(pg, off) //polarvet:allow fabriccost undo chain walk is bounded by the dead transaction's write count, not a retry
			if err != nil {
				return nil, err
			}
			if err := e.locks.Lock(u.Trx, ur.Space, ur.Key); err != nil {
				return nil, err
			}
			t.locks = append(t.locks, txn.LockRef{Space: ur.Space, Key: ur.Key})
			t.touched = append(t.touched, touchedKey{ur.Space, ur.Key})
			pg, off = ur.PrevTxnPg, ur.PrevTxnOff
		}
		e.cts.BeginInLog(u.Trx) // the new region's log is empty: the claim holds
		e.openView(t)
		adopted[u.Trx] = t
	}
	return adopted, nil
}

// RecoverTraditional replays redo on this single node instead of using
// page materialization offloading — the monolithic-architecture baseline
// of Figure 9 ("w/o page mat."): every page the redo log touches (a
// traditional engine checkpoints minutes apart, so the whole history) is
// read from storage and patched locally before service resumes. Returns
// the number of pages replayed — the serial REDO work the paper's design
// eliminates.
func (e *Engine) RecoverTraditional(oldRW rdma.NodeID) (int, error) {
	if e.cfg.ReadOnly {
		return 0, ErrNotRW
	}
	tail, err := e.pfs.RedoTail()
	if err != nil {
		return 0, err
	}
	// Single-node REDO: group records by page, fetch each page from
	// storage, apply the records here, ship the result back (modelled by
	// re-distributing the redo as in ParallelRedo but paying the local
	// replay cost). Redo records overwrite byte ranges, so replaying the
	// whole history onto the newest image yields that image again.
	replayed := make(map[types.PageID][]plog.Record)
	var after types.LSN
	for after < tail {
		recs, err := e.pfs.ReadRedo(after, 512) //polarvet:allow fabriccost bounded by the redo tail snapshot: after advances every iteration and the loop breaks on an empty batch
		if err != nil {
			return 0, err
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			replayed[r.Page] = append(replayed[r.Page], r)
		}
		after = recs[len(recs)-1].LSN
	}
	buf := make([]byte, types.PageSize)
	for id, recs := range replayed {
		//polarvet:allow fabriccost ARIES replay fetches each distinct redo-touched page exactly once, and only during failover
		data, _, exists, err := e.pfs.GetPage(id, polarfs.MaxLSN)
		if err != nil {
			return 0, err
		}
		if exists {
			copy(buf, data)
		} else {
			for i := range buf {
				buf[i] = 0
			}
		}
		for _, r := range recs {
			if err := r.ApplyToPage(buf); err != nil {
				// A record that does not fit its page means the redo read
				// back from storage is corrupt; recovery must not continue.
				return 0, err
			}
		}
		if err := e.pfs.ShipRecords(recs, recs[len(recs)-1].LSN); err != nil {
			return 0, err
		}
	}
	if err := e.pfs.AdvanceCoverage(tail); err != nil {
		return 0, err
	}
	// Continue with the common tail of recovery (txn table etc.).
	if _, err := e.Recover(oldRW, false); err != nil {
		return 0, err
	}
	return len(replayed), nil
}

// PlannedHandover performs the old RW's clean shutdown (§5.1 "planned
// node down"): synchronize redo to the page chunks, write every dirty
// page back to remote memory, and release all PL latches, so the new RW
// can skip recovery steps 4-6.
func (e *Engine) PlannedHandover() error {
	if e.cfg.ReadOnly {
		return ErrNotRW
	}
	if err := e.WaitAllShipped(); err != nil {
		return err
	}
	e.cache.ForEach(func(f *cache.Frame) {
		if f.Dirty() {
			f.Latch.RLock()
			e.writeBack(f)
			f.Latch.RUnlock()
		}
	})
	if e.pool != nil {
		e.pool.PL().ReleaseAll()
	}
	e.Close()
	return nil
}

// SwitchRW repoints an RO node at a new RW after failover: new CTS
// region (its published LSN starts from the durable redo tail, which the
// old RW's may have outrun, so the SMO clock starts over; the lease held
// names the old RW and lapses with it), flushed table cache, and a
// cold-ish local cache (every cached page is revalidated against the
// recovered pool on next use).
func (e *Engine) SwitchRW(rw rdma.NodeID, ctsRegion uint32) {
	if !e.cfg.ReadOnly {
		return
	}
	e.cfg.RWNode = rw
	e.ctsCli.SetRW(rw, ctsRegion)
	e.smoClock.Store(0)
	e.cache.EvictAll()
	if e.pool != nil {
		_ = e.pool.Flush() //polarvet:allow errdrop best-effort deref like every eviction; an unreachable home node means recovery reclaims the refs wholesale
	}
	e.cache.ForEach(func(f *cache.Frame) { f.Invalidate() })
	e.RefreshCatalog()
}
