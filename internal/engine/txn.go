package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"polardb/internal/btree"
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
	writes   int
	finished bool
}

type touchedKey struct {
	space types.SpaceID
	key   uint64
}

type backfillItem struct {
	space types.SpaceID
	key   uint64
	trx   types.TrxID
	cts   types.Timestamp
}

// Begin starts a read-write transaction (RW node only).
func (e *Engine) Begin() (*Txn, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	if e.buf == nil {
		return nil, errNotBootstrapped
	}
	id := types.TrxID(e.nextTrx.Add(1))
	if !e.cts.BeginInLog(id) {
		return nil, txn.ErrTooManyTxns
	}
	t := &Txn{e: e, id: id, slot: -1}
	e.activeMu.Lock()
	readTS := e.cts.NextTS()
	active := e.activeListLocked()
	e.active[id] = t
	e.activeMu.Unlock()
	t.view = txn.NewReadView(readTS, id, active)
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
		e.activeMu.Lock()
		readTS := e.cts.CurrentTS() + 1
		active := e.activeListLocked()
		e.activeMu.Unlock()
		t := &Txn{e: e, view: txn.NewReadView(readTS, 0, active)}
		e.roViewsMu.Lock()
		e.roViews[t] = readTS
		e.roViewsMu.Unlock()
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

// activeListLocked snapshots in-flight read-write transactions.
func (e *Engine) activeListLocked() []types.TrxID {
	out := make([]types.TrxID, 0, len(e.active))
	for id := range e.active {
		out = append(out, id)
	}
	return out
}

// publishViewLocked rewrites the view RO nodes read one-sided. Its list is
// the slot owners, not everything in e.active, which keeps it within the
// block's fixed size, and it is enough: a transaction without a slot has
// written no record; one that joined after a view was taken commits with a
// timestamp above that view's (it joined at its first write, under this
// lock, and takes its commit timestamp later), and until then its CTS-log
// slot says "uncommitted"; one listed leaves only after its outcome is in
// the CTS log (retire), so a view either lists it or reads its final
// timestamp — never first one, then the other.
func (e *Engine) publishViewLocked() {
	owners := make([]types.TrxID, 0, len(e.slotOwner))
	for _, id := range e.slotOwner {
		owners = append(owners, id)
	}
	e.cts.PublishView(owners)
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
	return t.getTree(tbl.Primary, key)
}

// GetIndex reads from a secondary index tree under the same snapshot.
func (t *Txn) GetIndex(ix *Index, key uint64) ([]byte, bool, error) {
	return t.getTree(ix.Tree, key)
}

func (t *Txn) getTree(tree *btree.Tree, key uint64) ([]byte, bool, error) {
	raw, err := tree.Get(key, t.e.readMode())
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
	t.writes++
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
	if t.id == 0 {
		e.dropROView(t)
		return nil // read-only
	}
	defer e.finish(t)
	if t.writes == 0 {
		e.cts.ClearSlot(t.id)
		e.met.txnCommit.Inc()
		return nil
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
	// Persist the CTS watermark so recovery restarts timestamps above it.
	if err := e.writeHeaderField(mt, txn.CTSWatermarkOffset, txn.MarshalCTSWatermark(ctsCommit)); err != nil {
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
	for _, k := range t.touched {
		select {
		case e.backfillCh <- backfillItem{k.space, k.key, t.id, ctsCommit}:
		default: // backfill is best-effort; the CTS log remains authoritative
		}
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
	if t.id == 0 {
		e.dropROView(t)
		return nil
	}
	defer e.finish(t)
	err := e.rollbackChain(t.id, t.lastPg, t.lastOff, t.slot)
	e.cts.RecordAbort(t.id)
	e.met.txnAbort.Inc()
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
		u, err := e.readUndo(pg, off) //polarvet:allow verbdeadline undo chain walk is bounded by the transaction's own write count, not a retry
		if err != nil {
			return err
		}
		if u.Trx != id {
			return fmt.Errorf("engine: undo chain of %d reached record of %d", id, u.Trx)
		}
		if err := e.rollbackOne(&u); err != nil { //polarvet:allow verbdeadline undo chain walk is bounded by the transaction's own write count, not a retry
			return err
		}
		pg, off = u.PrevTxnPg, u.PrevTxnOff
	}
	if slot >= 0 {
		mt := e.BeginMtr()
		err := e.writeSlot(mt, slot, txn.TxnSlot{State: txn.SlotFree})
		if _, cerr := mt.Commit(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rollbackOne restores the previous version for a single undo record
// under its own mini-transaction. The commit must happen on every path
// — an abandoned mtr would keep its pins and deferred PL latches
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
// (page, offset). Append-only: offsets never move.
func (e *Engine) appendUndo(mt *Mtr, u *txn.UndoRec) (types.PageNo, uint16, error) {
	enc := u.Marshal()
	// Page fetches can cross the fabric (remote memory, then PolarFS), so
	// they happen with undoMu released; the lock covers only the cursor
	// reservation and the latched in-frame writes. If another appender
	// rolls the cursor onto a new page while we fetch, retry against it.
	hdr, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		return 0, 0, err
	}
	defer e.Unpin(hdr)
	e.undoMu.Lock()
	// Counted, not unbounded: each retry means a full undo page was
	// appended by others during one fetch; 16 in a row is pathological.
	for tries := 0; tries < 16; tries++ {
		if e.undoOff < 8 {
			e.undoOff = 8 // bytes [0,8) of every page hold the page LSN
		}
		// The one appender that moves the cursor onto a page creates it in
		// memory: nothing was ever written past the cursor. Everyone else
		// fetches, and meets that fill in the flights map.
		fresh := false
		if int(e.undoOff)+len(enc) > types.PageSize {
			e.undoPage++
			e.undoOff = 8
			fresh, e.undoExact = e.undoExact, true
		}
		pg := e.undoPage
		e.undoMu.Unlock()
		f, err := e.fetch(types.PageID{Space: UndoSpace, No: pg}, fresh)
		if err != nil {
			return 0, 0, err
		}
		e.undoMu.Lock()
		if e.undoPage != pg || int(e.undoOff)+len(enc) > types.PageSize {
			e.undoMu.Unlock()
			e.Unpin(f)
			e.undoMu.Lock()
			continue
		}
		off := e.undoOff
		e.undoOff += uint16(len(enc))
		f.Latch.Lock()
		mt.LogWrite(f, int(off), enc)
		f.Latch.Unlock()
		// Persist the cursor so recovery resumes appending past everything.
		// Written under undoMu, so header cursor values are logged in
		// reservation order.
		hdr.Latch.Lock()
		mt.LogWrite(hdr, txn.UndoAllocOffset, txn.MarshalUndoAlloc(e.undoPage, e.undoOff))
		hdr.Latch.Unlock()
		e.undoMu.Unlock()
		e.Unpin(f)
		return pg, off, nil
	}
	e.undoMu.Unlock()
	return 0, 0, fmt.Errorf("engine: undo append cursor kept moving under fetch; giving up")
}

// claimSlot assigns a persistent transaction slot (first write) and, with
// it, a place in the published view — before any record of the
// transaction exists.
func (e *Engine) claimSlot(id types.TrxID) (int, error) {
	e.activeMu.Lock()
	defer e.activeMu.Unlock()
	for i := 0; i < txn.SlotCount(); i++ {
		if _, taken := e.slotOwner[i]; !taken {
			e.slotOwner[i] = id
			e.publishViewLocked()
			return i, nil
		}
	}
	return -1, txn.ErrTooManyTxns
}

// retire takes a read-write transaction out of the active set and, if it
// owned a slot, out of the published view. Callers have put its outcome
// into the CTS log first (RecordCommit, or RecordAbort after the rollback).
func (e *Engine) retire(id types.TrxID, slot int) {
	e.activeMu.Lock()
	delete(e.active, id)
	if slot >= 0 && e.slotOwner[slot] == id {
		delete(e.slotOwner, slot)
		e.publishViewLocked()
	}
	e.activeMu.Unlock()
}

// finish ends a transaction on every path out of Commit and Rollback. Row
// locks go after the view: the next writer of these rows must not become
// visible to a view that still lists this transaction.
func (e *Engine) finish(t *Txn) {
	e.retire(t.id, t.slot)
	e.locks.ReleaseAll(t.id, t.locks)
}

// writeSlot logs a transaction slot update on the undo header page.
func (e *Engine) writeSlot(mt *Mtr, slot int, s txn.TxnSlot) error {
	return e.writeHeaderField(mt, txn.SlotOffset(slot), s.Marshal())
}

// writeHeaderField logs a write at a fixed offset of the undo header page.
func (e *Engine) writeHeaderField(mt *Mtr, off int, data []byte) error {
	hdr, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		return err
	}
	hdr.Latch.Lock()
	mt.LogWrite(hdr, off, data)
	hdr.Latch.Unlock()
	e.Unpin(hdr)
	return nil
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
			tree := e.tree(item.space)
			mt := e.BeginMtr()
			err := tree.PatchInPlace(mt, item.key, func(val []byte) (int, []byte, bool) {
				rec, err := txn.UnmarshalRecord(val)
				if err != nil || rec.Trx != item.trx || rec.CTS != 0 {
					return 0, nil, false
				}
				patch := make([]byte, 8)
				for i := 0; i < 8; i++ {
					patch[i] = byte(uint64(item.cts) >> (8 * i))
				}
				return txn.CTSFieldOffset, patch, true
			})
			// Commit on both outcomes: an abandoned mtr would keep its
			// pins forever. On a miss (key since moved/deleted) nothing
			// was logged and the CTS log still serves readers.
			_, _ = mt.Commit()
			_ = err
		}
	}
}

func (e *Engine) dropROView(t *Txn) {
	e.roViewsMu.Lock()
	delete(e.roViews, t)
	e.roViewsMu.Unlock()
}

// purgeHorizon computes the oldest timestamp any snapshot may still
// need: active read-write views, local read-only views, and the leases RO
// nodes hold for theirs.
func (e *Engine) purgeHorizon() types.Timestamp {
	e.activeMu.Lock()
	horizon := e.cts.CurrentTS() + 1
	for _, t := range e.active {
		if t.view != nil && t.view.ReadTS < horizon {
			horizon = t.view.ReadTS
		}
	}
	e.activeMu.Unlock()
	e.roViewsMu.Lock()
	for _, ts := range e.roViews {
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
	e.roViewsMu.Unlock()
	return horizon
}

// noteROLease records an RO node's lease: views from ts on hold the purge
// horizon until now+roLeaseWindow. Expired leases leave as new ones
// arrive; all have the same window, so the slice is in expiry order.
func (e *Engine) noteROLease(ts types.Timestamp, now time.Time) {
	e.roViewsMu.Lock()
	expired := 0
	for expired < len(e.roLeases) && !now.Before(e.roLeases[expired].expires) {
		expired++
	}
	e.roLeases = append(e.roLeases[expired:], roLease{ts: ts, expires: now.Add(roLeaseWindow)})
	e.roViewsMu.Unlock()
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

// ActiveTxnCount reports in-flight read-write transactions.
func (e *Engine) ActiveTxnCount() int {
	e.activeMu.Lock()
	defer e.activeMu.Unlock()
	return len(e.active)
}
