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
	// route peeks at them before deciding whether to take the gate.
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
	return s.autocommit(nil)
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

// clearTx resets the transaction state (commit/rollback epilogue).
func (s *Session) clearTx() {
	s.txMu.Lock()
	s.tx = nil
	s.txLost = false
	s.txMu.Unlock()
	s.savepoint = 0
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

// Exec runs one write statement: inside the open transaction if any,
// otherwise autocommit (with transparent retry across switches).
func (s *Session) Exec(table string, op WriteOp, key uint64, value []byte) error {
	return s.route(&execStmt{target: target{table: table}, op: op, key: key, value: value})
}

// ExecIndex runs a write statement against a secondary index of a table
// (the payload is typically the encoded primary key; index entries are
// maintained by the application inside its transactions).
func (s *Session) ExecIndex(table, index string, op WriteOp, key uint64, value []byte) error {
	return s.route(&execStmt{target: target{table: table, index: index}, op: op, key: key, value: value})
}

// Get reads a key: from the open transaction's snapshot if any, otherwise
// as an autocommit read routed to a read replica.
func (s *Session) Get(table string, key uint64) ([]byte, bool, error) {
	st := &getStmt{target: target{table: table}, key: key}
	err := s.route(st)
	return st.val, st.ok, err
}

// Scan streams visible rows in [from, to) through a read replica.
func (s *Session) Scan(table string, from, to uint64, fn func(key uint64, val []byte) bool) error {
	return s.route(&scanStmt{target: target{table: table}, next: from, to: to, fn: fn})
}

// ScanIndex streams visible index entries in [from, to) under the
// session's snapshot rules.
func (s *Session) ScanIndex(table, index string, from, to uint64, fn func(key uint64, val []byte) bool) error {
	return s.route(&scanStmt{target: target{table: table, index: index}, next: from, to: to, fn: fn})
}

// stmt is one session statement. open resolves what it works on in the
// engine it is about to run on; run executes it in tx, a transaction of
// that engine. A statement that writes runs on the RW, and inside an open
// transaction it moves the savepoint.
type stmt interface {
	writes() bool
	open(e *engine.Engine) error
	run(tx *engine.Txn) error
}

// target is the table, or with index set the secondary index of it, that
// a statement works on.
type target struct {
	table, index string
	tbl          *engine.Table
	ix           *engine.Index
}

func (t *target) open(e *engine.Engine) error {
	tbl, err := e.OpenTable(t.table)
	if err != nil {
		return err
	}
	t.tbl = tbl
	if t.index == "" {
		return nil
	}
	t.ix, err = e.OpenIndex(tbl, t.index)
	return err
}

type execStmt struct {
	target
	op    WriteOp
	key   uint64
	value []byte
}

func (st *execStmt) writes() bool { return true }

func (st *execStmt) run(tx *engine.Txn) error {
	switch {
	case st.ix != nil && st.op == OpDelete:
		return tx.DeleteIndex(st.ix, st.key)
	case st.ix != nil:
		return tx.InsertIndex(st.ix, st.key, st.value)
	case st.op == OpInsert:
		return tx.Insert(st.tbl, st.key, st.value)
	case st.op == OpUpdate:
		return tx.Update(st.tbl, st.key, st.value)
	case st.op == OpPut:
		return tx.Put(st.tbl, st.key, st.value)
	case st.op == OpDelete:
		return tx.Delete(st.tbl, st.key)
	}
	return fmt.Errorf("cluster: unknown write op %d", st.op)
}

type getStmt struct {
	target
	key uint64
	val []byte
	ok  bool
}

func (st *getStmt) writes() bool { return false }

func (st *getStmt) run(tx *engine.Txn) (err error) {
	st.val, st.ok, err = tx.Get(st.tbl, st.key)
	return err
}

// scanStmt carries its cursor across autocommit retries: each attempt
// starts after the last key delivered, so no row reaches fn twice.
type scanStmt struct {
	target
	next, to uint64
	done     bool // the last key delivered was the largest there is
	fn       func(key uint64, val []byte) bool
}

func (st *scanStmt) writes() bool { return false }

func (st *scanStmt) run(tx *engine.Txn) error {
	if st.done {
		return nil
	}
	tree := st.tbl.Primary
	if st.ix != nil {
		tree = st.ix.Tree
	}
	return tx.ScanTree(tree, st.next, st.to, st.deliver)
}

func (st *scanStmt) deliver(key uint64, val []byte) bool {
	st.next, st.done = key+1, key == math.MaxUint64
	return st.fn(key, val)
}

// route runs one statement. Inside an open (or lost) transaction it runs
// on the RW under the switchover gate, and a write moves the savepoint;
// otherwise it is an autocommit transaction of its own. The transaction
// is peeked at without the gate and re-read under it: a failover may have
// held the gate and rebound, or lost, the session's transaction since.
func (s *Session) route(st stmt) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tx, err := s.txOrErr(); tx == nil && err == nil {
		return s.autocommit(st)
	}
	s.p.gate.RLock()
	defer s.p.gate.RUnlock()
	tx, err := s.txOrErr()
	if err == nil && tx == nil {
		err = ErrTxnLost
	}
	if err != nil {
		return err
	}
	if err := st.open(s.p.rwNode().Engine); err != nil {
		return err
	}
	if err := st.run(tx); err != nil {
		return err
	}
	if st.writes() {
		s.savepoint++ // statement boundary = savepoint (§3.5)
	}
	return nil
}

// autocommit runs st as a transaction of its own and retries it across a
// switchover; Begin passes a nil st and keeps the transaction open. A
// write (and Begin) runs on the RW, and while the RW's endpoint is down
// it waits for a promotion instead: a killed RW's engine would still
// begin a transaction, and its first write would fail. A read goes to a
// reader and is also retried when it meets a stale page.
func (s *Session) autocommit(st stmt) error {
	write := st == nil || st.writes()
	deadline := time.Now().Add(retryWindow)
	b := retry.Until(deadline, 5*time.Millisecond)
	for {
		s.p.gate.RLock()
		var node *DBNode
		if write {
			node = s.p.rwNode()
			if node.EP.Down() {
				s.p.gate.RUnlock()
				if !s.p.awaitNewRW(node, deadline) {
					return fmt.Errorf("%w: %s, and no RW was promoted within %v", rdma.ErrUnreachable, node.ID, retryWindow)
				}
				continue
			}
		} else {
			node = s.p.pickReader()
		}
		err := s.attempt(st, node.Engine)
		s.p.gate.RUnlock()
		if err == nil || !retryable(err) && (write || !errors.Is(err, engine.ErrStalePage)) || !b.Sleep() {
			return err
		}
	}
}

// attempt makes one try of autocommit's statement on e. A read runs in a
// read-only transaction that it finishes whatever happens: when the
// reader is the RW node, an unfinished view stays registered and pins the
// purge horizon at its timestamp.
func (s *Session) attempt(st stmt, e *engine.Engine) error {
	if st == nil {
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
	}
	if err := st.open(e); err != nil {
		return err
	}
	var tx *engine.Txn
	var err error
	if st.writes() {
		tx, err = e.Begin()
	} else {
		tx, err = e.BeginRO()
	}
	if err != nil {
		return err
	}
	if err := st.run(tx); err != nil {
		_ = tx.Rollback()
		return err
	}
	return tx.Commit()
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
