package rmem

import (
	"encoding/binary"
	"fmt"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/retry"
	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// Global page latch (PL) word layout, one 8-byte word per PAT entry in the
// home node's RDMA-registered metadata region:
//
//	bits  0..31  shared-lock count
//	bits 32..47  owner node index (valid when X is set)
//	bit  62      exclusive flag
//
// Fast path: database nodes manipulate the word directly with RDMA CAS.
// S-lock: CAS(w -> w+1) while X is clear. X-lock: CAS(0 -> X|owner). The
// slow path is an RPC to the home node, which negotiates — revoking sticky
// X-latches from their owner — until the latch can be granted.

const plXFlag = uint64(1) << 62

func plMakeX(owner uint16) uint64 { return plXFlag | uint64(owner)<<32 }

func plIsX(w uint64) bool { return w&plXFlag != 0 }

func plOwner(w uint64) uint16 { return uint16(w >> 32) }

func plSCount(w uint64) uint32 { return uint32(w) }

// PLMode is a latch mode.
type PLMode int

// Latch modes.
const (
	PLShared PLMode = iota
	PLExclusive
)

func (m PLMode) String() string {
	if m == PLExclusive {
		return "X"
	}
	return "S"
}

// plRecord is a page's global latch as this node holds it, kept in the
// page's registration entry so that it leaves the table with the entry.
// pins counts the critical sections in the latch; an X latch left with
// none is sticky, and stays until the home revokes it or the entry
// leaves. revokeReq says the home waits for the X latch: the last unpin
// lets it go.
type plRecord struct {
	held      bool
	mode      PLMode
	pins      int
	revokeReq bool
}

func (r *registration) heldX() bool { return r.pl.held && r.pl.mode == PLExclusive }

// PLManager is the database-node side of the global page latch protocol.
// It implements the RDMA-CAS fast path, falls back to home-node
// negotiation, and keeps X-latches sticky: an SMO's latches are retained
// after the SMO completes so the next SMO on the same pages pays nothing,
// and are released lazily when another node asks for them (§3.2).
//
// It is a view over the pool's registration table: a page's latch record
// lives in its entry and is guarded by Pool.mu. A latch is taken only at
// the address the entry holds, so a page with no entry, or one called
// with an address its entry no longer has, touches no word and gets
// ErrNotRegistered.
type PLManager struct {
	p        *Pool
	timeout  time.Duration
	ownerIdx uint16
	met      plMetrics
}

// plMetrics count latch-path outcomes in the node registry (§3.2).
type plMetrics struct {
	fast   *stat.Counter // latches taken by one RDMA CAS
	slow   *stat.Counter // latches negotiated through the home
	sticky *stat.Counter // X latches re-entered while held sticky
	revoke *stat.Counter // sticky latches surrendered to another node
}

func newPLManager(p *Pool, cfg Config, ownerIdx uint16) *PLManager {
	cfg.applyDefaults()
	r := p.ep.Metrics()
	m := &PLManager{p: p, timeout: cfg.LatchTimeout, ownerIdx: ownerIdx, met: plMetrics{
		fast:   r.Counter("rmem.pl.fast"),
		slow:   r.Counter("rmem.pl.slow"),
		sticky: r.Counter("rmem.pl.sticky"),
		revoke: r.Counter("rmem.pl.revoke"),
	}}
	p.ep.RegisterHandler(method("cb.revoke"), m.handleRevoke)
	return m
}

// LockX acquires the page's global latch exclusively. plAddr is the latch
// word address returned by page_register.
func (m *PLManager) LockX(page types.PageID, plAddr rdma.Addr) error {
	r, err := m.begin(page, plAddr, PLExclusive)
	if r == nil {
		return err
	}
	// Fast path: one RDMA CAS; else negotiate through the home node.
	_, fast, err := m.p.ep.CAS64(plAddr, 0, plMakeX(m.ownerIdx))
	if err == nil && !fast {
		err = m.slowAcquire(page, PLExclusive)
	}
	return m.finish(page, r, PLExclusive, fast, err)
}

// LockS acquires the latch in shared mode (RO traversals).
func (m *PLManager) LockS(page types.PageID, plAddr rdma.Addr) error {
	r, err := m.begin(page, plAddr, PLShared)
	if r == nil {
		return err
	}
	// Fast path: a few CAS attempts to bump the S count.
	fast := false
	for attempt := 0; attempt < 3; attempt++ {
		var w uint64
		if w, err = m.p.ep.Load64(plAddr); err != nil || plIsX(w) {
			break
		}
		if _, fast, err = m.p.ep.CAS64(plAddr, w, w+1); err != nil || fast {
			break
		}
	}
	if err == nil && !fast {
		err = m.slowAcquire(page, PLShared)
	}
	return m.finish(page, r, PLShared, fast, err)
}

// begin starts taking the page's latch in mode at plAddr. It returns nil
// when no word is to be touched: the node holds the latch in mode already
// (one more pin, nil error), or the page has no idle or held entry at
// plAddr (ErrNotRegistered). Otherwise the entry comes back marked
// acquiring, which keeps it in the table and makes the node's other
// acquisitions of the page wait, and finish must follow.
func (m *PLManager) begin(page types.PageID, plAddr rdma.Addr, mode PLMode) (*registration, error) {
	p := m.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		r := p.regs[page]
		switch {
		case r == nil || r.done != nil || r.res.PL != plAddr:
			return nil, fmt.Errorf("%w: latch %s at %v", ErrNotRegistered, page, plAddr)
		case r.acquiring:
			p.plChanged.Wait()
		case r.pl.held && r.pl.mode == mode:
			r.pl.pins++
			if mode == PLExclusive {
				m.met.sticky.Inc()
			}
			return nil, nil
		default:
			r.acquiring = true
			return r, nil
		}
	}
}

// finish ends an acquisition begun by begin: with err nil the entry now
// holds the latch in mode, pinned once. If the entry left the table
// meanwhile (a purge or a home switch took the word with its slot) there
// is no latch to keep, and the call reports ErrNotRegistered.
func (m *PLManager) finish(page types.PageID, r *registration, mode PLMode, fast bool, err error) error {
	p := m.p
	p.mu.Lock()
	defer p.mu.Unlock()
	r.acquiring = false
	p.plChanged.Broadcast()
	if err != nil {
		return err
	}
	if p.regs[page] != r {
		return fmt.Errorf("%w: %s left the table while its latch was taken", ErrNotRegistered, page)
	}
	r.pl = plRecord{held: true, mode: mode, pins: 1}
	if fast {
		m.met.fast.Inc()
	} else {
		m.met.slow.Inc()
	}
	return nil
}

// unpin ends one critical section in the page's latch held in mode. It
// returns the latch word to release when that was the last pin and the
// latch does not stay sticky.
func (m *PLManager) unpin(page types.PageID, mode PLMode, sticky bool) (rdma.Addr, bool, error) {
	p := m.p
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.regs[page]
	if r == nil || !r.pl.held || r.pl.mode != mode || r.pl.pins == 0 {
		return rdma.Addr{}, false, fmt.Errorf("%w: unlock%s %s", ErrNotRegistered, mode, page)
	}
	r.pl.pins--
	if r.pl.pins > 0 || sticky && !r.pl.revokeReq {
		return rdma.Addr{}, false, nil
	}
	r.pl = plRecord{}
	p.plChanged.Broadcast()
	return r.res.PL, true, nil
}

// UnlockX unpins an X latch. If sticky is true the latch is retained
// (released lazily on revocation); otherwise it is released immediately
// once no pins remain.
func (m *PLManager) UnlockX(page types.PageID, sticky bool) error {
	addr, release, err := m.unpin(page, PLExclusive, sticky)
	if !release {
		return err
	}
	return m.releaseX(addr)
}

// UnlockS releases a shared latch (S latches are never sticky).
func (m *PLManager) UnlockS(page types.PageID) error {
	addr, release, err := m.unpin(page, PLShared, false)
	if !release {
		return err
	}
	return m.releaseS(addr)
}

// releaseX clears the node's X word. A word that is not ours any more was
// force-released by the home (node kick, recovery).
func (m *PLManager) releaseX(addr rdma.Addr) error {
	_, _, err := m.p.ep.CAS64(addr, plMakeX(m.ownerIdx), 0)
	return err
}

// releaseS takes the node's share off the S count.
func (m *PLManager) releaseS(addr rdma.Addr) error {
	for {
		w, err := m.p.ep.Load64(addr)
		if err != nil {
			return err
		}
		if plSCount(w) == 0 {
			return nil // force-released by the home
		}
		if _, ok, err := m.p.ep.CAS64(addr, w, w-1); err != nil || ok {
			return err
		}
	}
}

// slowAcquire asks the home node to negotiate the latch.
func (m *PLManager) slowAcquire(page types.PageID, mode PLMode) error {
	w := wire.NewWriter(16)
	w.U32(uint32(page.Space))
	w.U32(uint32(page.No))
	w.U8(uint8(mode))
	w.U16(m.ownerIdx)
	// pl.slow must run home-side code: the home parks the request, revokes
	// the current owner and hands the latch over — not expressible as a
	// one-sided write.
	_, err := m.p.ep.CallTimeout(m.p.Home(), method("pl.slow"), w.Bytes(), m.timeout)
	if err != nil {
		return fmt.Errorf("%w: %s %s via home: %v", ErrLatchTimeout, mode, page, err)
	}
	return nil
}

// handleRevoke is called (via the home) when another node needs a latch we
// hold sticky. We release as soon as the current critical sections end,
// unless the entry leaves the table first and takes the word with it.
func (m *PLManager) handleRevoke(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	page := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	p := m.p
	p.mu.Lock()
	r := p.regs[page]
	if r == nil || !r.heldX() {
		p.mu.Unlock()
		return nil, nil // already released
	}
	m.met.revoke.Inc()
	for r.heldX() && r.pl.pins > 0 && p.regs[page] == r {
		r.pl.revokeReq = true
		p.plChanged.Wait()
	}
	if !r.heldX() || p.regs[page] != r {
		p.mu.Unlock()
		return nil, nil // released concurrently, or gone with the entry
	}
	r.pl = plRecord{}
	p.mu.Unlock()
	return nil, m.releaseX(r.res.PL)
}

// ReleaseAll drops every latch this node holds (planned shutdown: the
// paper's RW actively releases all PL locks before handover).
func (m *PLManager) ReleaseAll() {
	p := m.p
	var xs, ss []rdma.Addr
	p.mu.Lock()
	for _, r := range p.regs {
		if !r.pl.held || r.pl.mode == PLExclusive && r.pl.pins > 0 {
			continue
		}
		if r.pl.mode == PLExclusive {
			xs = append(xs, r.res.PL)
		} else {
			ss = append(ss, r.res.PL)
		}
		r.pl = plRecord{}
	}
	p.mu.Unlock()
	for _, addr := range xs {
		_ = m.releaseX(addr)
	}
	for _, addr := range ss {
		_ = m.releaseS(addr)
	}
}

// HeldCount reports how many latches are currently held (incl. sticky).
func (m *PLManager) HeldCount() int {
	p := m.p
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.regs {
		if r.pl.held {
			n++
		}
	}
	return n
}

// homeGrant negotiates a latch grant on the home node's local word. It
// revokes sticky X holders and waits for S counts to drain.
func (h *Home) homeGrant(page types.PageID, mode PLMode, requester uint16) error {
	b := retry.NewBackoff(200*time.Microsecond, h.cfg.LatchTimeout)
	for {
		h.mu.Lock()
		e, ok := h.tab.pat[page.Key()]
		if !ok {
			h.mu.Unlock()
			return fmt.Errorf("%w: latch on unregistered page %s", ErrNotRegistered, page)
		}
		slotOff := e.slotOff
		h.mu.Unlock()

		w, err := h.tab.meta.Load64Local(slotOff)
		if err != nil {
			return err
		}
		switch {
		case mode == PLExclusive && w == 0:
			if _, ok := h.tab.meta.MustCAS64Local(slotOff, 0, plMakeX(requester)); ok {
				return nil
			}
		case mode == PLShared && !plIsX(w):
			if _, ok := h.tab.meta.MustCAS64Local(slotOff, w, w+1); ok {
				return nil
			}
		case plIsX(w):
			owner := plOwner(w)
			h.revokeFromOwner(page, owner)
		}
		if !b.Sleep() {
			return fmt.Errorf("%w: %s on %s", ErrLatchTimeout, mode, page)
		}
	}
}

// revokeFromOwner asks the owning node to release its sticky X latch.
func (h *Home) revokeFromOwner(page types.PageID, owner uint16) {
	h.mu.Lock()
	var node rdma.NodeID
	if int(owner) < len(h.tab.nodes) {
		node = h.tab.nodes[owner]
	}
	slotOff := uint64(0)
	if e, ok := h.tab.pat[page.Key()]; ok {
		slotOff = e.slotOff
	}
	h.mu.Unlock()
	if node == "" {
		return
	}
	w := wire.NewWriter(8)
	w.U32(uint32(page.Space))
	w.U32(uint32(page.No))
	// The revoke callback must run owner-side code (drain local readers,
	// write back, release); its completion is the handover signal.
	_, err := h.ep.CallTimeout(node, method("cb.revoke"), w.Bytes(), h.cfg.InvalidateTimeout)
	if err != nil {
		// Owner unreachable (crashed): force-release so the cluster makes
		// progress; recovery will have cleared its state.
		cur := h.tab.meta.MustLoad64Local(slotOff)
		if plIsX(cur) && plOwner(cur) == owner {
			h.tab.meta.MustCAS64Local(slotOff, cur, 0)
		}
	}
}

// handlePLSlow is the home-side slow path RPC.
func (h *Home) handlePLSlow(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	page := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	mode := PLMode(rd.U8())
	requester := rd.U16()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if err := h.homeGrant(page, mode, requester); err != nil {
		return nil, err
	}
	return nil, nil
}

// releaseNodeLatches clears every X latch owned by node in the PLT
// (recovery step 6 of §5.1, part of takeover). The sweep is one
// read-modify-write of the span the PAT's slots occupy, under the region
// write lock (UpdateLocal), so it is one atomic pass: no survivor can grab
// a latch word between the scan of one slot and the clear of the next,
// and the crashed owner's in-flight CAS retries cannot interleave
// half-cleared state.
func (h *Home) releaseNodeLatches(node rdma.NodeID) {
	h.mu.Lock()
	idx, found := h.tab.nodeIdx[node]
	if !found || len(h.tab.pat) == 0 {
		h.mu.Unlock()
		return
	}
	offs := make([]uint64, 0, len(h.tab.pat))
	lo, hi := ^uint64(0), uint64(0)
	for _, e := range h.tab.pat {
		offs = append(offs, e.slotOff)
		lo, hi = min(lo, e.slotOff), max(hi, e.slotOff)
	}
	h.mu.Unlock()
	err := h.tab.meta.UpdateLocal(lo, int(hi-lo)+8, func(b []byte) error {
		for _, off := range offs {
			w := binary.LittleEndian.Uint64(b[off-lo:])
			if plIsX(w) && plOwner(w) == idx {
				binary.LittleEndian.PutUint64(b[off-lo:], 0)
			}
		}
		return nil
	})
	if err != nil {
		// The bounds come from the PAT's own slot offsets: failure is an
		// addressing bug, same contract as the Must*Local accessors.
		panic(fmt.Sprintf("rmem: PLT sweep: %v", err))
	}
}
