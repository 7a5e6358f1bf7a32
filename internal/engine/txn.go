package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"polardb/internal/btree"
	"polardb/internal/cache"
	"polardb/internal/rdma"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// Txn is a transaction handle. Read-write transactions run on the RW node
// (2PL row locks + undo logging); read-only transactions run on any node
// against a snapshot-isolation read view (§3.3).
type Txn struct {
	e    *Engine
	id   types.TrxID // 0 for read-only
	view *txn.ReadView

	slot     int
	lastPg   types.PageNo
	lastOff  uint16
	locks    []txn.LockRef
	touched  []touchedKey
	finished bool
}

type touchedKey struct {
	space types.SpaceID
	key   uint64
}

// backfillItem is one committed transaction's records for the
// backfill worker to stamp with its commit timestamp.
type backfillItem struct {
	trx  types.TrxID
	cts  types.Timestamp
	keys []touchedKey
}

// Begin starts a read-write transaction (RW node only). It claims no
// CTS-log slot: a transaction does that at its first write (claimSlot).
func (e *Engine) Begin() (*Txn, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	if e.buf == nil {
		return nil, errNotBootstrapped
	}
	id := types.TrxID(e.nextTrx.Add(1))
	t := &Txn{e: e, id: id, slot: -1}
	e.openView(t)
	return t, nil
}

// BeginRO starts a read-only transaction: on the RW a local snapshot, on
// an RO node the view the RW publishes in its CTS region, fetched with
// one one-sided read (the per-record visibility checks then use one-sided
// CTS log reads only, so no RO statement runs on the RW's CPU, §3.3).
//
//polarvet:fabric O(1) one one-sided read of the published view, no RPC; the purge-horizon lease is renewed at most once a second, off this path unless none is held
func (e *Engine) BeginRO() (*Txn, error) {
	if !e.cfg.ReadOnly {
		t := &Txn{e: e}
		e.openView(t)
		return t, nil
	}
	view, lsn, err := e.ctsCli.ReadView()
	if err != nil {
		return nil, fmt.Errorf("engine: read view from RW: %w", err)
	}
	e.observeSMOClock(lsn)
	if err := e.holdHorizon(view.ReadTS); err != nil {
		return nil, err
	}
	return &Txn{e: e, view: view}, nil
}

// openView gives t a local snapshot that lists the slot owners, as the
// published view does (publishViewLocked says why that is enough), and
// enters it into the purge horizon. Its timestamp is read under the same
// hold, so purgeHorizon never passes a view about to open.
func (e *Engine) openView(t *Txn) {
	e.activeMu.Lock()
	readTS := e.cts.CurrentTS() + 1
	t.view = txn.NewReadView(readTS, t.id, e.ownersLocked())
	e.views[t] = readTS
	e.activeMu.Unlock()
}

// ownersLocked lists the transactions that own an undo slot.
func (e *Engine) ownersLocked() []types.TrxID {
	owners := make([]types.TrxID, 0, len(e.slotOwner))
	for _, id := range e.slotOwner {
		owners = append(owners, id)
	}
	return owners
}

// publishViewLocked rewrites the view RO nodes read one-sided. Its list is
// the slot owners, which keeps it within the block's fixed size, and it is
// enough: a transaction without a slot has written no record; one that
// claimed its slot after a view was taken commits with a timestamp above
// that view's (it claims at its first write, under this lock, and takes
// its commit timestamp later), and until then its CTS-log slot, claimed
// with it, says "uncommitted"; one listed leaves only after its outcome is
// in the CTS log (finish), so a view either lists it or reads its final
// timestamp — never first one, then the other.
func (e *Engine) publishViewLocked() {
	e.cts.PublishView(e.ownersLocked())
}

// ID returns the transaction id (0 for read-only transactions).
func (t *Txn) ID() types.TrxID { return t.id }

// lookupCTS resolves commit status: locally on the RW, one-sided on ROs.
//
//polarvet:fabric O(1) visibility checks ride one one-sided CTS slot read; an RPC here would put the RW's CPU on every RO read path
func (e *Engine) lookupCTS(trx types.TrxID) (types.Timestamp, bool, error) {
	if !e.cfg.ReadOnly {
		cts, known := e.cts.Lookup(trx)
		return cts, known, nil
	}
	return e.ctsCli.Lookup(trx)
}

// ---------------------------------------------------------------------------
// Reads

// Get returns the payload visible to the transaction's snapshot.
func (t *Txn) Get(tbl *Table, key uint64) ([]byte, bool, error) {
	raw, err := tbl.Primary.Get(key, t.e.readMode())
	if errors.Is(err, btree.ErrKeyNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return t.resolveVersion(raw)
}

// resolveVersion walks a record's version chain until a visible version.
func (t *Txn) resolveVersion(raw []byte) ([]byte, bool, error) {
	rec, err := txn.UnmarshalRecord(raw)
	if err != nil {
		return nil, false, err
	}
	for depth := 0; depth < 1000; depth++ {
		vis, err := t.view.Judge(&rec, t.e.lookupCTS)
		if err != nil {
			return nil, false, err
		}
		if vis != txn.Invisible {
			if rec.Tombstone {
				return nil, false, nil
			}
			out := make([]byte, len(rec.Payload))
			copy(out, rec.Payload)
			return out, true, nil
		}
		if rec.UndoPage == 0 {
			return nil, false, nil // created after the snapshot
		}
		u, err := t.e.readUndo(rec.UndoPage, rec.UndoOff)
		if err != nil {
			return nil, false, err
		}
		if u.Type == txn.UndoInsert {
			return nil, false, nil // the record did not exist before
		}
		rec, err = txn.UnmarshalRecord(u.PrevBytes)
		if err != nil {
			return nil, false, err
		}
	}
	return nil, false, fmt.Errorf("engine: version chain too deep")
}

// readUndo loads one undo record. PrevBytes (the previous version; empty
// for an insert marker) is copied out under the page latch, so the record
// stays valid once the frame is unpinned.
func (e *Engine) readUndo(pg types.PageNo, off uint16) (txn.UndoRec, error) {
	f, err := e.Fetch(types.PageID{Space: UndoSpace, No: pg})
	if err != nil {
		return txn.UndoRec{}, err
	}
	f.Latch.RLock()
	u, err := txn.UnmarshalUndo(f.Data, int(off))
	u.PrevBytes = append([]byte(nil), u.PrevBytes...)
	f.Latch.RUnlock()
	e.Unpin(f)
	if err != nil {
		return txn.UndoRec{}, fmt.Errorf("engine: undo %d/%d: %w", pg, off, err)
	}
	return u, nil
}

// Scan streams visible records with from <= key < to in key order.
func (t *Txn) Scan(tbl *Table, from, to uint64, fn func(key uint64, payload []byte) bool) error {
	return t.ScanTree(tbl.Primary, from, to, fn)
}

// ScanTree is Scan over an arbitrary index tree.
func (t *Txn) ScanTree(tree *btree.Tree, from, to uint64, fn func(key uint64, payload []byte) bool) error {
	var resolveErr error
	err := tree.Scan(from, to, t.e.readMode(), func(kv btree.KV) bool {
		payload, ok, err := t.resolveVersion(kv.Value)
		if err != nil {
			resolveErr = err
			return false
		}
		if !ok {
			return true
		}
		return fn(kv.Key, payload)
	})
	if err != nil {
		return err
	}
	return resolveErr
}

// ---------------------------------------------------------------------------
// Writes

// Insert adds a new row; ErrKeyExists if a visible version exists.
func (t *Txn) Insert(tbl *Table, key uint64, payload []byte) error {
	return t.writeTree(tbl.Primary, key, payload, opInsert)
}

// Update replaces an existing row; ErrKeyNotFound if absent.
func (t *Txn) Update(tbl *Table, key uint64, payload []byte) error {
	return t.writeTree(tbl.Primary, key, payload, opUpdate)
}

// Put inserts or replaces a row.
func (t *Txn) Put(tbl *Table, key uint64, payload []byte) error {
	return t.writeTree(tbl.Primary, key, payload, opPut)
}

// Delete removes a row (tombstone; older snapshots keep seeing it).
func (t *Txn) Delete(tbl *Table, key uint64) error {
	return t.writeTree(tbl.Primary, key, nil, opDelete)
}

// InsertIndex / DeleteIndex maintain a secondary index entry within the
// same transaction (the payload is typically the encoded primary key).
func (t *Txn) InsertIndex(ix *Index, key uint64, payload []byte) error {
	return t.writeTree(ix.Tree, key, payload, opPut)
}

// DeleteIndex tombstones a secondary index entry.
func (t *Txn) DeleteIndex(ix *Index, key uint64) error {
	return t.writeTree(ix.Tree, key, nil, opDelete)
}

type writeKind int

const (
	opInsert writeKind = iota
	opUpdate
	opPut
	opDelete
)

func (t *Txn) writeTree(tree *btree.Tree, key uint64, payload []byte, kind writeKind) error {
	if t.id == 0 {
		return ErrNotRW
	}
	if t.finished {
		return ErrClosed
	}
	e := t.e
	space := tree.Space()
	if err := e.locks.Lock(t.id, space, key); err != nil {
		return err
	}
	t.locks = append(t.locks, txn.LockRef{Space: space, Key: key})

	// Read the newest version (raw) to build the undo record.
	cur, err := tree.Get(key, btree.Local)
	exists := err == nil
	if err != nil && !errors.Is(err, btree.ErrKeyNotFound) {
		return err
	}
	var curRec txn.Record
	live := false
	if exists {
		curRec, err = txn.UnmarshalRecord(cur)
		if err != nil {
			return err
		}
		live = !curRec.Tombstone
	}
	switch kind {
	case opInsert:
		if live {
			return fmt.Errorf("%w: key %d", ErrKeyExists, key)
		}
	case opUpdate:
		if !live {
			return fmt.Errorf("%w: key %d", ErrKeyNotFound, key)
		}
	case opDelete:
		if !live {
			return fmt.Errorf("%w: key %d", ErrKeyNotFound, key)
		}
	}

	// Build the undo record.
	u := txn.UndoRec{
		Trx:        t.id,
		Space:      space,
		Key:        key,
		PrevTxnPg:  t.lastPg,
		PrevTxnOff: t.lastOff,
	}
	if exists {
		u.Type = txn.UndoUpdate
		if kind == opDelete {
			u.Type = txn.UndoDelete
		}
		u.PrevBytes = cur
	} else {
		u.Type = txn.UndoInsert
	}

	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit() // applied page changes must still be logged
		}
	}()
	if t.slot < 0 {
		slot, err := e.claimSlot(t.id)
		if err != nil {
			return err
		}
		t.slot = slot
	}
	undoPg, undoOff, err := e.appendUndo(mt, &u)
	if err != nil {
		return err
	}
	newRec := txn.Record{
		Trx:       t.id,
		UndoPage:  undoPg,
		UndoOff:   undoOff,
		Tombstone: kind == opDelete,
		Payload:   payload,
	}
	if err := tree.Put(mt, key, newRec.Marshal()); err != nil {
		return err
	}
	// Persist the rollback chain head in the slot (same MTR: atomic).
	if err := e.writeSlot(mt, t.slot, txn.TxnSlot{
		Trx: t.id, State: txn.SlotActive, LastUndoPage: undoPg, LastUndoOff: undoOff,
	}); err != nil {
		return err
	}
	if _, err := mt.Commit(); err != nil {
		committed = true
		return err
	}
	committed = true
	t.lastPg, t.lastOff = undoPg, undoOff
	t.touched = append(t.touched, touchedKey{space, key})
	return nil
}

// Commit makes the transaction durable and visible.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrClosed
	}
	t.finished = true
	e := t.e
	defer e.finish(t)
	if t.id == 0 {
		return nil // read-only
	}
	if t.slot < 0 {
		e.met.txnCommit.Inc()
		return nil // wrote nothing: no CTS-log slot to end
	}
	ctsCommit := e.cts.NextTS()
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit()
		}
	}()
	if err := e.writeSlot(mt, t.slot, txn.TxnSlot{
		Trx: t.id, State: txn.SlotCommitted, LastUndoPage: t.lastPg, LastUndoOff: t.lastOff,
	}); err != nil {
		return err
	}
	if err := e.raiseCTSWatermark(mt, ctsCommit); err != nil {
		return err
	}
	end, err := mt.Commit()
	committed = true
	if err != nil {
		return err
	}
	// Commit point: redo durable on the log chunks, then the commit
	// timestamp becomes visible through the CTS log.
	if err := e.DurableCommit(end); err != nil {
		// The node died before the commit became durable; recovery on the
		// new RW rolls this transaction back.
		e.met.txnAbort.Inc()
		return err
	}
	e.cts.RecordCommit(t.id, ctsCommit)
	e.met.txnCommit.Inc()
	// Backfill cts_commit into the modified records asynchronously.
	select {
	case e.backfillCh <- backfillItem{t.id, ctsCommit, t.touched}:
	default: // backfill is best-effort; the CTS log remains authoritative
	}
	return nil
}

// Rollback undoes every change and releases the transaction.
func (t *Txn) Rollback() error {
	if t.finished {
		return ErrClosed
	}
	t.finished = true
	e := t.e
	defer e.finish(t)
	if t.id == 0 {
		return nil
	}
	e.met.txnAbort.Inc()
	if t.slot < 0 {
		// Wrote nothing: nothing to undo, and the CTS-log slot its id maps
		// to may belong to another transaction.
		return nil
	}
	err := e.rollbackChain(t.id, t.lastPg, t.lastOff, t.slot)
	e.cts.RecordAbort(t.id)
	return err
}

// rollbackChain walks a transaction's undo chain newest-first, restoring
// previous versions, then frees the slot. Used by both explicit rollback
// and crash recovery (step 9 of §5.1).
func (e *Engine) rollbackChain(id types.TrxID, pg types.PageNo, off uint16, slot int) error {
	// The walk is bounded structurally: each undo record links strictly
	// to an older one, so the chain length is the number of writes the
	// transaction made, not a retry.
	for pg != 0 {
		u, err := e.readUndo(pg, off) //polarvet:allow fabriccost undo chain walk is bounded by the transaction's own write count, not a retry
		if err != nil {
			return err
		}
		if u.Trx != id {
			return fmt.Errorf("engine: undo chain of %d reached record of %d", id, u.Trx)
		}
		if err := e.rollbackOne(&u); err != nil { //polarvet:allow fabriccost undo chain walk is bounded by the transaction's own write count, not a retry
			return err
		}
		pg, off = u.PrevTxnPg, u.PrevTxnOff
	}
	if slot < 0 {
		return nil
	}
	mt := e.BeginMtr()
	if err := e.writeSlot(mt, slot, txn.TxnSlot{State: txn.SlotFree}); err != nil {
		_, _ = mt.Commit()
		return err
	}
	_, err := mt.Commit()
	return err
}

// rollbackOne restores the previous version for a single undo record
// under its own mini-transaction. The commit must happen on every path
// — an abandoned mtr would keep its latches, pins and deferred PL latches
// forever — so error returns publish whatever was logged first.
func (e *Engine) rollbackOne(u *txn.UndoRec) error {
	tree := e.tree(u.Space)
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit()
		}
	}()
	switch u.Type {
	case txn.UndoInsert:
		if err := tree.Delete(mt, u.Key); err != nil && !errors.Is(err, btree.ErrKeyNotFound) {
			return err
		}
	default: // update / delete: restore the previous record bytes
		if err := tree.Put(mt, u.Key, u.PrevBytes); err != nil {
			return err
		}
	}
	committed = true
	_, err := mt.Commit()
	return err
}

// ---------------------------------------------------------------------------
// Undo allocation & transaction slots

// appendUndo writes an undo record into the undo space and returns its
// (page, offset). Append-only: offsets never move. The cursor lives in the
// undo header, which mt holds from here to its commit, so cursor writes
// are logged in the order they were made: the recovered cursor is past
// every record, and a roll-over's next page was never written (FetchNew).
func (e *Engine) appendUndo(mt *Mtr, u *txn.UndoRec) (types.PageNo, uint16, error) {
	enc := u.Marshal()
	hdr, err := e.undoHeader(mt)
	if err != nil {
		return 0, 0, err
	}
	pg, off := txn.UndoAlloc(hdr.Data)
	fresh := int(off)+len(enc) > types.PageSize
	if fresh {
		pg, off = pg+1, 8 // bytes [0,8) of every page hold the page LSN
	}
	f, err := e.fetch(types.PageID{Space: UndoSpace, No: pg}, fresh)
	if err != nil {
		return 0, 0, err
	}
	mt.lockX(f)
	e.Unpin(f) // the MTR holds its own pin
	mt.LogWrite(f, int(off), enc)
	mt.LogWrite(hdr, txn.UndoAllocOffset, txn.MarshalUndoAlloc(pg, off+uint16(len(enc))))
	return pg, off, nil
}

// claimSlot assigns a persistent transaction slot (first write) and, with
// it, the transaction's CTS-log slot and a place in every view taken from
// now on — before any record of the transaction exists.
func (e *Engine) claimSlot(id types.TrxID) (int, error) {
	e.activeMu.Lock()
	defer e.activeMu.Unlock()
	for i := 0; i < txn.SlotCount(); i++ {
		if _, taken := e.slotOwner[i]; !taken {
			if !e.cts.BeginInLog(id) {
				return -1, txn.ErrTooManyTxns
			}
			e.slotOwner[i] = id
			e.publishViewLocked()
			return i, nil
		}
	}
	return -1, txn.ErrTooManyTxns
}

// retireLocked takes a slot's owner out of the published view and out of
// every view taken from now on. Callers have put its outcome into the CTS
// log first (RecordCommit, or RecordAbort after the rollback), or rolled
// back a transaction recovery found, whose CTS log died with its RW.
func (e *Engine) retireLocked(id types.TrxID, slot int) {
	if owner, ok := e.slotOwner[slot]; ok && owner == id {
		delete(e.slotOwner, slot)
		e.publishViewLocked()
	}
}

// finish ends a transaction on every path out of Commit and Rollback: its
// snapshot leaves the purge horizon and its slot the views. Row locks go
// after the slot: the next writer of these rows must not become visible
// to a view that still lists this transaction.
func (e *Engine) finish(t *Txn) {
	e.activeMu.Lock()
	delete(e.views, t)
	e.retireLocked(t.id, t.slot)
	e.activeMu.Unlock()
	if len(t.locks) > 0 { // an RO node has no lock table
		e.locks.ReleaseAll(t.id, t.locks)
	}
}

// writeSlot logs a transaction slot update on the undo header page.
func (e *Engine) writeSlot(mt *Mtr, slot int, s txn.TxnSlot) error {
	hdr, err := e.undoHeader(mt)
	if err != nil {
		return err
	}
	mt.LogWrite(hdr, txn.SlotOffset(slot), s.Marshal())
	return nil
}

// raiseCTSWatermark persists a commit timestamp in the undo header, so that
// recovery restarts timestamps above it. Commits reach the header out of
// timestamp order, so the watermark only rises: mt holds the header, and
// reads it and writes it under one hold.
func (e *Engine) raiseCTSWatermark(mt *Mtr, ts types.Timestamp) error {
	hdr, err := e.undoHeader(mt)
	if err != nil {
		return err
	}
	if ts > txn.CTSWatermark(hdr.Data) {
		mt.LogWrite(hdr, txn.CTSWatermarkOffset, txn.MarshalCTSWatermark(ts))
	}
	return nil
}

// undoHeader returns the undo header page X-latched for mt, which holds it
// until it commits: what mt reads there is the header's newest state.
func (e *Engine) undoHeader(mt *Mtr) (*cache.Frame, error) {
	hdr, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		return nil, err
	}
	mt.lockX(hdr)
	e.Unpin(hdr) // the MTR holds its own pin
	return hdr, nil
}

// backfillWorker asynchronously fills cts_commit into committed records
// (§3.3: immediate filling would cause a burst of random writes at commit
// time; readers use the CTS log until the backfill lands).
func (e *Engine) backfillWorker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.closeCh:
			return
		case item := <-e.backfillCh:
			for keys := item.keys; len(keys) > 0; {
				keys = e.backfill(item, keys)
			}
		}
	}
}

// backfillPages bounds the pages one backfill MTR writes: an MTR pins
// every page it wrote until it commits, and a small local cache shared
// with the writers would run out of frames to evict. backfillBusyTries
// bounds an MTR's retries of keys whose latch is busy.
const backfillPages, backfillBusyTries = 4, 64

// backfill patches a committed transaction's records in one MTR, up to
// backfillPages pages (all of them for a typical OLTP transaction), and
// returns the keys left for the next.
func (e *Engine) backfill(item backfillItem, keys []touchedKey) []touchedKey {
	patch := func(val []byte) (int, []byte, bool) {
		rec, err := txn.UnmarshalRecord(val)
		if err != nil || rec.Trx != item.trx || rec.CTS != 0 {
			return 0, nil, false
		}
		return txn.CTSFieldOffset, binary.LittleEndian.AppendUint64(nil, uint64(item.cts)), true
	}
	mt := e.BeginMtr()
	done := 0
	for try := 0; done < len(keys) && len(mt.frames) < backfillPages && try-done < backfillBusyTries; try++ {
		k := keys[done]
		// A miss (key since moved or deleted) logs nothing, and the CTS
		// log still serves readers. A busy latch (try-done counts them) is
		// mostly an MTR about to commit, so the key is tried again; after a
		// few tries this MTR ends, and the key is the next one's first,
		// which waits for it.
		if err := e.tree(k.space).PatchInPlace(mt, k.key, patch); errors.Is(err, btree.ErrLatchBusy) {
			runtime.Gosched()
		} else {
			done++
		}
	}
	// Commit on every outcome: an abandoned mtr would keep its latches
	// forever.
	_, _ = mt.Commit()
	return keys[done:]
}

// purgeHorizon computes the oldest timestamp any snapshot may still
// need: the local views, read-write and read-only, and the leases RO
// nodes hold for theirs.
func (e *Engine) purgeHorizon() types.Timestamp {
	e.activeMu.Lock()
	defer e.activeMu.Unlock()
	horizon := e.cts.CurrentTS() + 1
	for _, ts := range e.views {
		if ts < horizon {
			horizon = ts
		}
	}
	now := time.Now()
	for _, l := range e.roLeases {
		if now.Before(l.expires) && l.ts < horizon {
			horizon = l.ts
		}
	}
	return horizon
}

// noteROLease records an RO node's lease: views from ts on hold the purge
// horizon until now+roLeaseWindow. Expired leases leave as new ones
// arrive; all have the same window, so the slice is in expiry order.
func (e *Engine) noteROLease(ts types.Timestamp, now time.Time) {
	e.activeMu.Lock()
	expired := 0
	for expired < len(e.roLeases) && !now.Before(e.roLeases[expired].expires) {
		expired++
	}
	e.roLeases = append(e.roLeases[expired:], roLease{ts: ts, expires: now.Add(roLeaseWindow)})
	e.activeMu.Unlock()
}

// heldLease is the newest lease an RO node knows the RW has acknowledged.
type heldLease struct {
	rw    rdma.NodeID
	until time.Time // counted from before the request left, so no later than the RW's expiry
}

type leaseReq struct {
	rw rdma.NodeID
	ts types.Timestamp
}

// holdHorizon makes sure the RW's purge horizon stays at or below a view
// this RO node has just read. Published timestamps never decrease, so a
// lease taken out for an earlier view covers this one for as long as it
// runs. With more than half a window left the view goes ahead, and past
// roLeaseRenew a renewal is handed to leaseKeeper; with less — the first
// view, the first after a pause or after SwitchRW — it waits for its own.
func (e *Engine) holdHorizon(readTS types.Timestamp) error {
	req := leaseReq{rw: e.cfg.RWNode, ts: readTS}
	switch left := e.leaseLeft(req.rw); {
	case left < roLeaseWindow/2:
		return e.takeLease(req)
	case left < roLeaseWindow-roLeaseRenew:
		select {
		case e.leaseCh <- req:
		default: // a renewal is already waiting
		}
	}
	return nil
}

// leaseLeft is how long the lease this node holds from rw still runs.
func (e *Engine) leaseLeft(rw rdma.NodeID) time.Duration {
	if l := e.lease.Load(); l != nil && l.rw == rw {
		return time.Until(l.until)
	}
	return 0
}

func (e *Engine) takeLease(req leaseReq) error {
	until := time.Now().Add(roLeaseWindow)
	var msg [8]byte
	binary.LittleEndian.PutUint64(msg[:], uint64(req.ts))
	if _, err := e.ep.CallTimeout(req.rw, leaseMethod, msg[:], leaseTimeout); err != nil {
		return fmt.Errorf("engine: purge-horizon lease from RW: %w", err)
	}
	e.lease.Store(&heldLease{rw: req.rw, until: until})
	return nil
}

// leaseKeeper sends an RO node's lease renewals, so that no statement
// waits for one while an older lease still holds the horizon.
func (e *Engine) leaseKeeper() {
	defer e.wg.Done()
	for {
		select {
		case <-e.closeCh:
			return
		case req := <-e.leaseCh:
			if e.leaseLeft(req.rw) >= roLeaseWindow-roLeaseRenew {
				continue // queued while the previous renewal was on the wire
			}
			// A failed renewal is not retried here: the lease in force runs
			// down to half its window, and the next BeginRO takes one out
			// itself and reports the error.
			_ = e.takeLease(req)
		}
	}
}

// handleLease serves cts.lease on the RW.
func (e *Engine) handleLease(from rdma.NodeID, req []byte) ([]byte, error) {
	if len(req) < 8 {
		return nil, txn.ErrBadRecord
	}
	e.noteROLease(types.Timestamp(binary.LittleEndian.Uint64(req)), time.Now())
	return nil, nil
}

// PurgeTombstones physically removes delete-marked records that are no
// longer visible to any possible snapshot: the tombstone's commit
// timestamp must be backfilled and below every active transaction's read
// view (InnoDB-style purge; the paper's engine inherits it from InnoDB).
// Returns the number of records purged. RW only; run it periodically or
// after bulk deletes.
func (e *Engine) PurgeTombstones(tbl *Table) (int, error) {
	if e.cfg.ReadOnly {
		return 0, ErrNotRW
	}
	// Horizon: no open snapshot (read-write, local read-only, or leased to
	// an RO node) may still need the deleted version.
	horizon := e.purgeHorizon()

	// Collect purgable keys first (scan without latching across the op),
	// then delete them one MTR at a time.
	var victims []uint64
	err := tbl.Primary.Scan(0, ^uint64(0), btree.Local, func(kv btree.KV) bool {
		rec, err := txn.UnmarshalRecord(kv.Value)
		if err != nil {
			return true
		}
		if rec.Tombstone && rec.CTS != 0 && rec.CTS < horizon {
			victims = append(victims, kv.Key)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	purged := 0
	for _, k := range victims {
		// Re-check under the write lock: the key may have been reborn.
		if err := e.locks.Lock(types.TrxID(^uint64(0)), tbl.Space, k); err != nil {
			continue // contended; next purge pass gets it
		}
		raw, err := tbl.Primary.Get(k, btree.Local)
		if err == nil {
			if rec, derr := txn.UnmarshalRecord(raw); derr == nil &&
				rec.Tombstone && rec.CTS != 0 && rec.CTS < horizon {
				mt := e.BeginMtr()
				delErr := tbl.Primary.Delete(mt, k)
				// Commit releases the MTR's pins even when the delete failed.
				//polarvet:allow fabriccost each tombstone is purged in its own MTR because the row lock is re-checked per key; batching purges would hold row locks across the whole victim list
				if _, err := mt.Commit(); err == nil && delErr == nil {
					purged++
				}
			}
		}
		e.locks.ReleaseAll(types.TrxID(^uint64(0)), []txn.LockRef{{Space: tbl.Space, Key: k}})
	}
	return purged, nil
}

// ActiveTxnCount reports the in-flight read-write transactions that own
// an undo slot: those that have written, and those recovery found and has
// not finished rolling back.
func (e *Engine) ActiveTxnCount() int {
	e.activeMu.Lock()
	defer e.activeMu.Unlock()
	return len(e.slotOwner)
}
