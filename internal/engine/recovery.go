package engine

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"polardb/internal/cache"
	"polardb/internal/plog"
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
// oldRW is the failed node (for latch release); planned skips the steps a
// clean handover already performed. The cluster manager has already fenced
// the old RW (steps 1-2) before calling this.
//
// Steps (unplanned):
//
//	3-4. parallel REDO: collect the checkpoint from the page chunks, read
//	     redo from the log chunks and distribute it — the REDO phase runs
//	     concurrently on all page chunk nodes, not on this node.
//	5.   scan the remote memory pool and evict pages whose invalidation
//	     bit is set or whose version exceeds the durable redo tail.
//	6.   force-release every PL latch the old RW held.
//	7.   scan the undo header to rebuild the active transaction table.
//	8.   start serving.
//	9.   in the background: roll back unfinished transactions, and fetch
//	     the pages step 5 purged back from storage.
func (e *Engine) Recover(oldRW rdma.NodeID, planned bool) error {
	if e.cfg.ReadOnly {
		return ErrNotRW
	}
	trace := func(string) {}
	if os.Getenv("POLARDB_TRACE_RECOVERY") != "" {
		t0 := time.Now()
		trace = func(step string) {
			fmt.Fprintf(os.Stderr, "recovery: %-24s +%8.1fms\n", step, time.Since(t0).Seconds()*1000)
		}
	}
	// Steps 3-4: parallel REDO on the storage fleet.
	_, tail, err := e.pfs.ParallelRedo()
	if err != nil {
		return fmt.Errorf("engine: parallel redo: %w", err)
	}
	e.buf = e.newBufferAt(tail)
	e.buf.MarkFlushed(tail)
	e.setShipped(tail)
	e.cts.PublishLSN(tail)
	trace("parallel redo")

	var purged []types.PageID // what step 5 took out of the pool
	if e.pool != nil && !planned {
		// The crashed node's page references must not pin pages or stall
		// invalidation fan-outs.
		if oldRW != "" {
			_ = e.pool.DropNodeRefs(oldRW) //polarvet:allow errdrop best-effort purge of the dead node's refs; a failure leaves pins that only delay eviction, never correctness
		}
		// Step 5: purge remote-memory pages that are stale (PIB set) or
		// ahead of the durable redo (written back before their redo
		// flushed). Everything that survives is byte-consistent with
		// storage, so the hot working set stays warm; what does not is the
		// part of it the old RW was writing, and is fetched again in the
		// background once this node serves (step 9).
		entries, err := e.pool.ScanRemote()
		if err != nil {
			return fmt.Errorf("engine: scanning remote memory: %w", err)
		}
		for _, en := range entries {
			if !en.Stale {
				var hdr [8]byte
				if err := e.ep.Read(en.Data, hdr[:]); err == nil && types.LSN(binary.LittleEndian.Uint64(hdr[:])) <= tail {
					continue
				}
			}
			purged = append(purged, en.Page)
			//polarvet:allow fabriccost recovery-only purge: runs once per RW failover, and each evicted page is a distinct home-side state change
			_ = e.pool.ForceEvict(en.Page) //polarvet:allow errdrop best-effort purge; a page that survives eviction is re-validated against storage on next fetch
		}
		trace("pool scan + evict")
		// Step 6: release the crashed RW's global latches.
		if oldRW != "" {
			if err := e.pool.ReleaseNodeLatches(oldRW); err != nil {
				return fmt.Errorf("engine: releasing old RW latches: %w", err)
			}
		}
		trace("latch release")
	}

	// Step 7: rebuild transaction state from the undo header.
	hdrPage, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		return err
	}
	hdrPage.Latch.RLock()
	unfinished := txn.ScanUnfinished(hdrPage.Data)
	maxTrx := txn.MaxTrxID(hdrPage.Data)
	watermark := txn.CTSWatermark(hdrPage.Data)
	undoPg, undoOff := txn.UndoAlloc(hdrPage.Data)
	slotByTrx := make(map[types.TrxID]int)
	for i := 0; i < txn.SlotCount(); i++ {
		s := txn.UnmarshalSlot(hdrPage.Data, i)
		if s.State == txn.SlotActive || s.State == txn.SlotAborting {
			slotByTrx[s.Trx] = i
		}
	}
	hdrPage.Latch.RUnlock()
	e.Unpin(hdrPage)

	e.nextTrx.Store(uint64(maxTrx))
	e.cts.SetCounter(watermark + 1)
	if undoPg == 0 {
		undoPg = 1
	}
	if undoOff < 8 {
		undoOff = 8
	}
	e.undoPage, e.undoOff, e.undoExact = undoPg, undoOff, false

	// Unfinished transactions stay in the active set and, as slot owners,
	// in the published view (invisible to every read view) until their
	// background rollback completes, or, adopted, until they finish. This is
	// the region's first view: no RO node is pointed here before it.
	e.activeMu.Lock()
	for _, u := range unfinished {
		e.active[u.Trx] = &Txn{e: e, id: u.Trx}
	}
	for trx, slot := range slotByTrx {
		e.slotOwner[slot] = trx
	}
	e.publishViewLocked()
	e.activeMu.Unlock()

	trace("undo scan")
	// Step 8: serve.
	e.start()

	if planned {
		// Planned switch (§3.5): transaction state lives in shared memory
		// (undo chains, slot table), so in-flight transactions are adopted
		// by the new RW instead of being rolled back — the proxy resumes
		// them from their latest savepoint.
		return e.adoptUnfinished(unfinished, slotByTrx)
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
			for _, u := range unfinished {
				slot := slotByTrx[u.Trx]
				_ = e.rollbackChain(u.Trx, u.LastUndoPage, u.LastUndoOff, slot)
				e.retire(u.Trx, slot)
			}
		}()
	}
	return nil
}

// adoptUnfinished rebuilds live Txn handles for the unfinished
// transactions found at planned takeover: their undo chains are walked to
// re-acquire row locks and rebuild the touched-key set, and their CTS log
// slots are re-claimed as active. Adopted transactions get a fresh read
// view (their original snapshot died with the old node's memory).
func (e *Engine) adoptUnfinished(unfinished []txn.TxnSlot, slotByTrx map[types.TrxID]int) error {
	adopted := make(map[types.TrxID]*Txn, len(unfinished))
	for _, u := range unfinished {
		t := &Txn{e: e, id: u.Trx, slot: slotByTrx[u.Trx], lastPg: u.LastUndoPage, lastOff: u.LastUndoOff}
		// Walk the undo chain to rediscover what the txn touched.
		pg, off := u.LastUndoPage, u.LastUndoOff
		for pg != 0 {
			ur, err := e.readUndo(pg, off) //polarvet:allow verbdeadline undo chain walk is bounded by the dead transaction's write count, not a retry
			if err != nil {
				return err
			}
			if err := e.locks.Lock(u.Trx, ur.Space, ur.Key); err != nil {
				return err
			}
			t.locks = append(t.locks, txn.LockRef{Space: ur.Space, Key: ur.Key})
			t.touched = append(t.touched, touchedKey{ur.Space, ur.Key})
			t.writes++
			pg, off = ur.PrevTxnPg, ur.PrevTxnOff
		}
		e.cts.BeginInLog(u.Trx)
		if uint64(u.Trx) > e.nextTrx.Load() {
			e.nextTrx.Store(uint64(u.Trx))
		}
		e.activeMu.Lock()
		readTS := e.cts.NextTS()
		active := e.activeListLocked()
		e.activeMu.Unlock()
		t.view = txn.NewReadView(readTS, u.Trx, active)
		adopted[u.Trx] = t
		e.activeMu.Lock()
		e.active[u.Trx] = t
		e.activeMu.Unlock()
	}
	e.adoptedMu.Lock()
	e.adopted = adopted
	e.adoptedMu.Unlock()
	return nil
}

// Adopted returns (and clears) the transactions adopted at planned
// takeover, keyed by transaction id, for the proxy to rebind to sessions.
func (e *Engine) Adopted() map[types.TrxID]*Txn {
	e.adoptedMu.Lock()
	defer e.adoptedMu.Unlock()
	m := e.adopted
	e.adopted = nil
	return m
}

// RecoverTraditional replays redo on this single node instead of using
// page materialization offloading — the monolithic-architecture baseline
// of Figure 9 ("w/o page mat."): every page touched since the last page
// flush (fromLSN; a traditional engine checkpoints minutes apart, so the
// benchmark passes 0 = full history) is read from storage and patched
// locally before service resumes. Returns the number of pages replayed —
// the serial REDO work the paper's design eliminates.
func (e *Engine) RecoverTraditional(oldRW rdma.NodeID, fromLSN types.LSN) (int, error) {
	if e.cfg.ReadOnly {
		return 0, ErrNotRW
	}
	cp := fromLSN
	tail, err := e.pfs.RedoTail()
	if err != nil {
		return 0, err
	}
	// Single-node REDO: group records by page, fetch each page's base
	// version from storage, apply the records here, ship the result back
	// (modelled by re-distributing the redo as in ParallelRedo but paying
	// the local replay cost).
	replayed := make(map[types.PageID][]plog.Record)
	after := cp
	for after < tail {
		recs, err := e.pfs.ReadRedo(after, 512) //polarvet:allow verbdeadline bounded by the redo tail snapshot: after advances every iteration and the loop breaks on an empty batch
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
		data, _, exists, err := e.pfs.GetPage(id, cp)
		if err != nil && exists {
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
	if err := e.Recover(oldRW, false); err != nil {
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
	e.WaitAllShipped()
	e.cache.ForEach(func(f *cache.Frame) {
		if f.Dirty() && f.Remote.Registered {
			f.Latch.RLock()
			if err := e.pool.WritePage(f.Remote.Data, f.Data, f.Remote.PIB); err == nil {
				f.ClearDirty()
			}
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
