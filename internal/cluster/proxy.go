package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"polardb/internal/engine"
	"polardb/internal/rdma"
	"polardb/internal/retry"
	"polardb/internal/types"
)

// Proxy is the stateless routing tier (§2.1, §3.5): it splits read and
// write traffic (writes to the RW, reads balanced across RO nodes), keeps
// client sessions alive across RW switches, and tracks per-session
// savepoints so transactions resume on the new RW after a planned switch
// instead of rolling back.
type Proxy struct {
	c *Cluster

	// gate: operations hold it shared; a switchover takes it exclusively,
	// which both drains in-flight statements and pauses new ones (the
	// paper's 100 ms quiesce).
	gate sync.RWMutex

	mu  sync.Mutex
	rw  *DBNode
	ros []*DBNode
	// rwChanged is closed, and replaced, when rw changes: a session that
	// finds the RW's endpoint down waits on it for the promotion.
	rwChanged chan struct{}
	rr        atomic.Uint64

	sessMu   sync.Mutex
	sessions map[*Session]struct{}
}

// ErrTxnLost is returned to a session whose transaction died with an
// unplanned RW failure; the client must restart the transaction.
var ErrTxnLost = errors.New("cluster: transaction lost in unplanned failover; restart it")

func newProxy(c *Cluster) *Proxy {
	p := &Proxy{c: c, sessions: make(map[*Session]struct{}), rwChanged: make(chan struct{})}
	p.setNodes(c.RW, c.ROs)
	return p
}

func (p *Proxy) setNodes(rw *DBNode, ros []*DBNode) {
	p.mu.Lock()
	if rw != p.rw {
		close(p.rwChanged)
		p.rwChanged = make(chan struct{})
	}
	p.rw = rw
	p.ros = append([]*DBNode(nil), ros...)
	p.mu.Unlock()
}

func (p *Proxy) rwNode() *DBNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rw
}

// awaitNewRW waits until the RW is no longer rw, or until deadline, and
// reports whether it changed.
func (p *Proxy) awaitNewRW(rw *DBNode, deadline time.Time) bool {
	p.mu.Lock()
	changed := p.rw != rw
	ch := p.rwChanged
	p.mu.Unlock()
	if changed {
		return true
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// pickReader balances reads across RO nodes, falling back to the RW.
func (p *Proxy) pickReader() *DBNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ros) == 0 {
		return p.rw
	}
	return p.ros[p.rr.Add(1)%uint64(len(p.ros))]
}

// RWNodeKill crashes the current RW node (fault injection for tests and
// the failover demo).
func (p *Proxy) RWNodeKill() {
	if rw := p.rwNode(); rw != nil {
		rw.EP.Kill()
	}
}

// Connect opens a client session.
func (p *Proxy) Connect() *Session {
	s := &Session{p: p}
	p.sessMu.Lock()
	p.sessions[s] = struct{}{}
	p.sessMu.Unlock()
	return s
}

// Close releases the session.
func (s *Session) Close() {
	_ = s.Rollback()
	s.p.sessMu.Lock()
	delete(s.p.sessions, s)
	s.p.sessMu.Unlock()
}

// rebindAll updates every session after a switchover (gate held
// exclusively by the caller).
func (p *Proxy) rebindAll(adopted map[types.TrxID]*engine.Txn) {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	for s := range p.sessions {
		s.rebindAfterSwitch(adopted)
	}
}

// Session is one client connection through the proxy. It survives RW
// switches: autocommit statements retry transparently; open transactions
// resume from their savepoint after a planned switch.
type Session struct {
	p  *Proxy
	mu sync.Mutex

	// txMu guards tx/trxID/txLost. It is a leaf lock: rebindAfterSwitch
	// mutates them from the failover path (which cannot take s.mu without
	// deadlocking against a session op blocked on the proxy gate), and
	// session ops peek at them before deciding whether to take the gate.
	txMu      sync.Mutex
	tx        *engine.Txn
	trxID     types.TrxID
	savepoint int // statements executed in the open transaction
	txLost    bool
}

// Savepoint returns the executed-statement count of the open transaction.
func (s *Session) Savepoint() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.savepoint
}

// retryWindow bounds transparent retries around a switchover.
const retryWindow = 10 * time.Second

// withRW runs fn against the RW engine with switchover gating + retry.
// While the RW's endpoint is down it waits for a promotion instead: a
// killed RW's engine would still begin a transaction, and its first write
// would fail.
func (s *Session) withRW(fn func(e *engine.Engine, tbl func(string) (*engine.Table, error)) error) error {
	deadline := time.Now().Add(retryWindow)
	b := retry.Until(deadline, 5*time.Millisecond)
	for {
		s.p.gate.RLock()
		node := s.p.rwNode()
		if node.EP.Down() {
			s.p.gate.RUnlock()
			if !s.p.awaitNewRW(node, deadline) {
				return fmt.Errorf("%w: %s, and no RW was promoted within %v", rdma.ErrUnreachable, node.ID, retryWindow)
			}
			continue
		}
		e := node.Engine
		err := fn(e, e.OpenTable)
		s.p.gate.RUnlock()
		if err == nil || !retryable(err) || !b.Sleep() {
			return err
		}
	}
}

func retryable(err error) bool {
	return errors.Is(err, engine.ErrClosed) || errors.Is(err, engine.ErrNotRW) ||
		errors.Is(err, rdma.ErrUnreachable) || errors.Is(err, rdma.ErrNoSuchNode)
}

// Begin opens a read-write transaction pinned to the RW node.
func (s *Session) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tx, _ := s.txOrErr(); tx != nil {
		return fmt.Errorf("cluster: transaction already open")
	}
	return s.withRW(func(e *engine.Engine, _ func(string) (*engine.Table, error)) error {
		tx, err := e.Begin()
		if err != nil {
			return err
		}
		s.txMu.Lock()
		s.tx = tx
		s.trxID = tx.ID()
		s.txLost = false
		s.txMu.Unlock()
		s.savepoint = 0
		return nil
	})
}

// txOrErr returns the open transaction, surfacing a lost-txn condition.
func (s *Session) txOrErr() (*engine.Txn, error) {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	if s.txLost {
		return nil, ErrTxnLost
	}
	return s.tx, nil
}

// txOpen reports whether the session has (or has lost) an open
// transaction, i.e. whether the next statement belongs on the RW under
// the gate rather than the autocommit path.
func (s *Session) txOpen() bool {
	s.txMu.Lock()
	defer s.txMu.Unlock()
	return s.tx != nil || s.txLost
}

// openTxn enters the open transaction for one statement: it returns the
// transaction and the RW engine it runs on with the switchover gate
// read-held, and the caller releases the gate when the statement is done.
// With no transaction open it returns nil and holds nothing — the
// statement belongs on the autocommit path. The transaction is re-read
// under the gate: a failover may have held it and rebound, or lost, the
// session's transaction since the peek.
func (s *Session) openTxn() (*engine.Txn, *engine.Engine, error) {
	if !s.txOpen() {
		return nil, nil, nil
	}
	s.p.gate.RLock()
	tx, err := s.txOrErr()
	if err == nil && tx == nil {
		err = ErrTxnLost
	}
	if err != nil {
		s.p.gate.RUnlock()
		return nil, nil, err
	}
	return tx, s.p.rwNode().Engine, nil
}

// clearTx resets the transaction state (commit/rollback epilogue).
func (s *Session) clearTx() {
	s.txMu.Lock()
	s.tx = nil
	s.txLost = false
	s.txMu.Unlock()
	s.savepoint = 0
}

// Exec runs one write statement: inside the open transaction if any,
// otherwise autocommit (with transparent retry across switches).
func (s *Session) Exec(table string, op WriteOp, key uint64, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, e, err := s.openTxn()
	if err != nil {
		return err
	}
	if tx != nil {
		defer s.p.gate.RUnlock()
		tbl, err := e.OpenTable(table)
		if err != nil {
			return err
		}
		if err := applyWrite(tx, tbl, op, key, value); err != nil {
			return err
		}
		s.savepoint++ // statement boundary = savepoint (§3.5)
		return nil
	}
	return s.withRW(func(e *engine.Engine, open func(string) (*engine.Table, error)) error {
		tbl, err := open(table)
		if err != nil {
			return err
		}
		tx, err := e.Begin()
		if err != nil {
			return err
		}
		if err := applyWrite(tx, tbl, op, key, value); err != nil {
			_ = tx.Rollback()
			return err
		}
		return tx.Commit()
	})
}

// WriteOp enumerates session write statements.
type WriteOp int

// Write statement kinds.
const (
	OpInsert WriteOp = iota
	OpUpdate
	OpPut
	OpDelete
)

func applyWrite(tx *engine.Txn, tbl *engine.Table, op WriteOp, key uint64, value []byte) error {
	switch op {
	case OpInsert:
		return tx.Insert(tbl, key, value)
	case OpUpdate:
		return tx.Update(tbl, key, value)
	case OpPut:
		return tx.Put(tbl, key, value)
	case OpDelete:
		return tx.Delete(tbl, key)
	}
	return fmt.Errorf("cluster: unknown write op %d", op)
}

// ExecIndex runs a write statement against a secondary index of a table
// (the payload is typically the encoded primary key; index entries are
// maintained by the application inside its transactions).
func (s *Session) ExecIndex(table, index string, op WriteOp, key uint64, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	apply := func(tx *engine.Txn, e *engine.Engine) error {
		tbl, err := e.OpenTable(table)
		if err != nil {
			return err
		}
		ix, ok := tbl.Indexes[index]
		if !ok {
			return fmt.Errorf("cluster: no index %s on %s", index, table)
		}
		switch op {
		case OpDelete:
			return tx.DeleteIndex(ix, key)
		default:
			return tx.InsertIndex(ix, key, value)
		}
	}
	tx, e, err := s.openTxn()
	if err != nil {
		return err
	}
	if tx != nil {
		defer s.p.gate.RUnlock()
		if err := apply(tx, e); err != nil {
			return err
		}
		s.savepoint++
		return nil
	}
	return s.withRW(func(e *engine.Engine, _ func(string) (*engine.Table, error)) error {
		tx, err := e.Begin()
		if err != nil {
			return err
		}
		if err := apply(tx, e); err != nil {
			_ = tx.Rollback()
			return err
		}
		return tx.Commit()
	})
}

// ScanIndex streams visible index entries in [from, to) under the
// session's snapshot rules.
func (s *Session) ScanIndex(table, index string, from, to uint64, fn func(key uint64, val []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := &scanCursor{next: from, fn: fn}
	scan := func(tx *engine.Txn, e *engine.Engine) error {
		if cur.done {
			return nil
		}
		tbl, err := e.OpenTable(table)
		if err != nil {
			return err
		}
		ix, ok := tbl.Indexes[index]
		if !ok {
			return fmt.Errorf("cluster: no index %s on %s", index, table)
		}
		return tx.ScanTree(ix.Tree, cur.next, to, cur.deliver)
	}
	tx, e, err := s.openTxn()
	if err != nil {
		return err
	}
	if tx != nil {
		defer s.p.gate.RUnlock()
		return scan(tx, e)
	}
	return s.readAuto(scan)
}

// Get reads a key: from the open transaction's snapshot if any, otherwise
// as an autocommit read routed to a read replica.
func (s *Session) Get(table string, key uint64) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, e, err := s.openTxn()
	if err != nil {
		return nil, false, err
	}
	if tx != nil {
		defer s.p.gate.RUnlock()
		tbl, err := e.OpenTable(table)
		if err != nil {
			return nil, false, err
		}
		return tx.Get(tbl, key)
	}
	var val []byte
	var ok bool
	err = s.readAuto(func(ro *engine.Txn, e *engine.Engine) error {
		tbl, err := e.OpenTable(table)
		if err != nil {
			return err
		}
		val, ok, err = ro.Get(tbl, key)
		return err
	})
	return val, ok, err
}

// Scan streams visible rows in [from, to) through a read replica.
func (s *Session) Scan(table string, from, to uint64, fn func(key uint64, val []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx, e, err := s.openTxn()
	if err != nil {
		return err
	}
	if tx != nil {
		defer s.p.gate.RUnlock()
		tbl, err := e.OpenTable(table)
		if err != nil {
			return err
		}
		return tx.Scan(tbl, from, to, fn)
	}
	cur := &scanCursor{next: from, fn: fn}
	return s.readAuto(func(ro *engine.Txn, e *engine.Engine) error {
		if cur.done {
			return nil
		}
		tbl, err := e.OpenTable(table)
		if err != nil {
			return err
		}
		return ro.Scan(tbl, cur.next, to, cur.deliver)
	})
}

// scanCursor lets readAuto retry a range scan without replaying it: each
// attempt starts after the last key delivered, so no row reaches fn twice.
type scanCursor struct {
	next uint64
	done bool // the last key delivered was the largest there is
	fn   func(key uint64, val []byte) bool
}

func (c *scanCursor) deliver(key uint64, val []byte) bool {
	c.next, c.done = key+1, key == math.MaxUint64
	return c.fn(key, val)
}

// readAuto routes an autocommit read to a reader node with retry. Each
// attempt runs fn in a read-only transaction of its own and finishes it:
// when the reader is the RW node, an unfinished view stays registered and
// pins the purge horizon at its timestamp.
func (s *Session) readAuto(fn func(ro *engine.Txn, e *engine.Engine) error) error {
	b := retry.NewBackoff(5*time.Millisecond, retryWindow)
	for {
		s.p.gate.RLock()
		e := s.p.pickReader().Engine
		ro, err := e.BeginRO()
		if err == nil {
			err = fn(ro, e)
			_ = ro.Commit() // a read-only commit only drops the view; it cannot fail
		}
		s.p.gate.RUnlock()
		if err == nil {
			return err
		}
		if !retryable(err) && !errors.Is(err, engine.ErrStalePage) {
			return err
		}
		if !b.Sleep() {
			return err
		}
	}
}

// Commit commits the open transaction.
func (s *Session) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.gate.RLock()
	defer s.p.gate.RUnlock()
	tx, err := s.txOrErr()
	if err != nil {
		s.clearTx()
		return err
	}
	if tx == nil {
		return nil
	}
	defer s.clearTx()
	return tx.Commit()
}

// Rollback aborts the open transaction.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.p.gate.RLock()
	defer s.p.gate.RUnlock()
	tx, err := s.txOrErr()
	if err != nil {
		s.clearTx()
		return nil // already gone
	}
	if tx == nil {
		return nil
	}
	defer s.clearTx()
	return tx.Rollback()
}

// rebindAfterSwitch updates the session after a switchover while the
// proxy gate is held exclusively. adopted maps trx ids to resumed
// transactions on the new RW (planned switches); nil means unplanned.
func (s *Session) rebindAfterSwitch(adopted map[types.TrxID]*engine.Txn) {
	// The gate excludes gated session ops, but ops peek at the tx state
	// before taking the gate (and re-check under it), so the mutation
	// must hold the leaf lock.
	s.txMu.Lock()
	defer s.txMu.Unlock()
	if s.tx == nil {
		return
	}
	if adopted != nil {
		if nt, ok := adopted[s.trxID]; ok {
			s.tx = nt // resume from the savepoint: prior statements live on
			return
		}
	}
	s.tx = nil
	s.txLost = true
}
