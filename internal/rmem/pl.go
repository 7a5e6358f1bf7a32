package rmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
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

type heldPL struct {
	addr rdma.Addr
	mode PLMode
	pins int // active critical sections
	// sticky X-latches are kept after the last unpin until revoked
	cond      *sync.Cond
	revokeReq bool
}

// PLManager is the database-node side of the global page latch protocol.
// It implements the RDMA-CAS fast path, falls back to home-node
// negotiation, and keeps X-latches sticky: an SMO's latches are retained
// after the SMO completes so the next SMO on the same pages pays nothing,
// and are released lazily when another node asks for them (§3.2).
type PLManager struct {
	ep       *rdma.Endpoint
	cfg      Config
	home     rdma.NodeID
	ownerIdx uint16

	mu   sync.Mutex
	held map[uint64]*heldPL

	met plMetrics
}

// plMetrics count latch-path outcomes in the node registry (§3.2).
type plMetrics struct {
	fast   *stat.Counter // latches taken by one RDMA CAS
	slow   *stat.Counter // latches negotiated through the home
	sticky *stat.Counter // X latches re-entered while held sticky
	revoke *stat.Counter // sticky latches surrendered to another node
}

func newPLMetrics(r *stat.Registry) plMetrics {
	return plMetrics{
		fast:   r.Counter("rmem.pl.fast"),
		slow:   r.Counter("rmem.pl.slow"),
		sticky: r.Counter("rmem.pl.sticky"),
		revoke: r.Counter("rmem.pl.revoke"),
	}
}

// NewPLManager creates the node's latch manager. ownerIdx is the node
// index assigned by the home at registration time (carried in X words so
// other nodes can find the owner). It registers the revoke callback.
func NewPLManager(ep *rdma.Endpoint, cfg Config, home rdma.NodeID, ownerIdx uint16) *PLManager {
	cfg.applyDefaults()
	m := &PLManager{ep: ep, cfg: cfg, home: home, ownerIdx: ownerIdx, held: make(map[uint64]*heldPL), met: newPLMetrics(ep.Metrics())}
	ep.RegisterHandler(method("cb.revoke"), m.handleRevoke)
	return m
}

// SetHome repoints the manager after a home failover. All sticky state is
// dropped; latches on the old home are gone with it.
func (m *PLManager) SetHome(home rdma.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.home = home
	m.held = make(map[uint64]*heldPL)
}

// LockX acquires the page's global latch exclusively. plAddr is the latch
// word address returned by page_register.
func (m *PLManager) LockX(page types.PageID, plAddr rdma.Addr) error {
	k := page.Key()
	m.mu.Lock()
	if h, ok := m.held[k]; ok && h.mode == PLExclusive {
		// Sticky hit: we still own the X latch from a previous SMO.
		h.pins++
		h.addr = plAddr
		m.met.sticky.Inc()
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()

	// Fast path: one RDMA CAS.
	want := plMakeX(m.ownerIdx)
	if _, ok, err := m.ep.CAS64(plAddr, 0, want); err != nil {
		return err
	} else if ok {
		m.record(k, plAddr, PLExclusive, true)
		return nil
	}
	// Slow path: negotiate through the home node.
	if err := m.slowAcquire(page, PLExclusive); err != nil {
		return err
	}
	m.record(k, plAddr, PLExclusive, false)
	return nil
}

// UnlockX unpins an X latch. If sticky is true the latch is retained
// (released lazily on revocation); otherwise it is released immediately
// once no pins remain.
func (m *PLManager) UnlockX(page types.PageID, sticky bool) error {
	k := page.Key()
	m.mu.Lock()
	h, ok := m.held[k]
	if !ok || h.mode != PLExclusive {
		m.mu.Unlock()
		return fmt.Errorf("%w: unlockX %s", ErrNotRegistered, page)
	}
	h.pins--
	if h.pins > 0 {
		m.mu.Unlock()
		return nil
	}
	if sticky && !h.revokeReq {
		h.cond.Broadcast()
		m.mu.Unlock()
		return nil
	}
	delete(m.held, k)
	addr := h.addr
	h.cond.Broadcast()
	m.mu.Unlock()
	return m.releaseX(addr)
}

func (m *PLManager) releaseX(addr rdma.Addr) error {
	_, ok, err := m.ep.CAS64(addr, plMakeX(m.ownerIdx), 0)
	if err != nil {
		return err
	}
	if !ok {
		// The home may have force-released it (node kick / recovery).
		return nil
	}
	return nil
}

// LockS acquires the latch in shared mode (RO traversals).
func (m *PLManager) LockS(page types.PageID, plAddr rdma.Addr) error {
	k := page.Key()
	m.mu.Lock()
	if h, ok := m.held[k]; ok && h.mode == PLShared {
		h.pins++
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()

	// Fast path: a few CAS attempts to bump the S count.
	for attempt := 0; attempt < 3; attempt++ {
		w, err := m.ep.Load64(plAddr)
		if err != nil {
			return err
		}
		if plIsX(w) {
			break
		}
		if _, ok, err := m.ep.CAS64(plAddr, w, w+1); err != nil {
			return err
		} else if ok {
			m.record(k, plAddr, PLShared, true)
			return nil
		}
	}
	if err := m.slowAcquire(page, PLShared); err != nil {
		return err
	}
	m.record(k, plAddr, PLShared, false)
	return nil
}

// UnlockS releases a shared latch (S latches are never sticky).
func (m *PLManager) UnlockS(page types.PageID) error {
	k := page.Key()
	m.mu.Lock()
	h, ok := m.held[k]
	if !ok || h.mode != PLShared {
		m.mu.Unlock()
		return fmt.Errorf("%w: unlockS %s", ErrNotRegistered, page)
	}
	h.pins--
	if h.pins > 0 {
		m.mu.Unlock()
		return nil
	}
	delete(m.held, k)
	addr := h.addr
	m.mu.Unlock()
	for {
		w, err := m.ep.Load64(addr)
		if err != nil {
			return err
		}
		if plSCount(w) == 0 {
			return nil // force-released by the home
		}
		if _, ok, err := m.ep.CAS64(addr, w, w-1); err != nil {
			return err
		} else if ok {
			return nil
		}
	}
}

func (m *PLManager) record(k uint64, addr rdma.Addr, mode PLMode, fast bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := &heldPL{addr: addr, mode: mode, pins: 1}
	h.cond = sync.NewCond(&m.mu)
	m.held[k] = h
	if fast {
		m.met.fast.Inc()
	} else {
		m.met.slow.Inc()
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
	_, err := m.ep.CallTimeout(m.home, method("pl.slow"), w.Bytes(), m.cfg.LatchTimeout)
	if err != nil {
		return fmt.Errorf("%w: %s %s via home: %v", ErrLatchTimeout, mode, page, err)
	}
	return nil
}

// handleRevoke is called (via the home) when another node needs a latch we
// hold sticky. We release as soon as the current critical section ends.
func (m *PLManager) handleRevoke(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	page := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	k := page.Key()
	m.mu.Lock()
	h, ok := m.held[k]
	if !ok || h.mode != PLExclusive {
		m.mu.Unlock()
		return nil, nil // already released
	}
	m.met.revoke.Inc()
	h.revokeReq = true
	for h.pins > 0 {
		h.cond.Wait()
	}
	if m.held[k] != h {
		m.mu.Unlock()
		return nil, nil // released concurrently
	}
	delete(m.held, k)
	addr := h.addr
	m.mu.Unlock()
	if err := m.releaseX(addr); err != nil {
		return nil, err
	}
	return nil, nil
}

// ReleaseAll drops every latch this node holds (planned shutdown: the
// paper's RW actively releases all PL locks before handover).
func (m *PLManager) ReleaseAll() {
	m.mu.Lock()
	var toRelease []heldPL
	for k, h := range m.held {
		if h.pins == 0 || h.mode == PLShared {
			toRelease = append(toRelease, *h)
			delete(m.held, k)
		}
	}
	m.mu.Unlock()
	for _, h := range toRelease {
		if h.mode == PLExclusive {
			_ = m.releaseX(h.addr)
		} else {
			for {
				w, err := m.ep.Load64(h.addr)
				if err != nil || plSCount(w) == 0 {
					break
				}
				_, ok, err := m.ep.CAS64(h.addr, w, w-1)
				if err != nil || ok {
					break
				}
			}
		}
	}
}

// HeldCount reports how many latches are currently held (incl. sticky).
func (m *PLManager) HeldCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held)
}

var errLatchBusy = errors.New("rmem: latch busy")

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
