package rmem

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// RegisterResult is what page_register returns: whether the page already
// existed in the pool, the one-sided address of its data, and the
// addresses of its PL latch and PIB invalidation words.
type RegisterResult struct {
	Exists bool
	Data   rdma.Addr
	PL     rdma.Addr
	PIB    rdma.Addr
}

// Pool is the librmem client on a database node. Page data is moved with
// one-sided RDMA verbs; registration, invalidation and latch negotiation
// are RPCs to the home node.
//
// The pool owns the node's registration table: which pages this node is
// in the PRD of, at which addresses. A page is *held* while local users
// (cached frames, mostly) count on it; when the last one unregisters it
// is *idle* — still referenced at the home, addresses still good — and
// joins the idle list, oldest first, with no round trip. Registering a
// held or idle page costs no round trip either, so a re-miss on a page
// the node still holds is a PIB probe and a one-sided read. Idle entries
// leave in batches, one unreg round trip each, during which they are *in
// flight*: when the home runs out of slots and asks for them (cb.reclaim,
// the oldest unregisterBatch), and at Flush. Registering a page that is
// in flight, or that another goroutine is registering, waits for that
// round trip first. An entry also carries the page's PL record, the
// global latch as this node holds it (see PLManager). A page with local
// users, or whose latch a critical section pins or an acquisition is
// taking, is never put in a batch; a sticky X latch leaves with its
// entry. An entry also leaves when the home says its addresses are gone
// (cb.slabfail: the home's purge, for a slab crash, a Shrink or an RW
// takeover), and when the node changes home, its latch with it. So an
// entry always means "the home counts this node as a holder", and the
// home never evicts under it; idle entries are a cache of mappings that
// the home shrinks when it needs the slots.
type Pool struct {
	ep  *rdma.Endpoint
	met poolMetrics

	mu      sync.Mutex
	home    rdma.NodeID
	regs    map[types.PageID]*registration
	idle    *list.List // idle pages (types.PageID), oldest first
	dropSeq uint64     // counts the times entries were dropped from outside (callback, SwitchHome)
	// plChanged is broadcast when a latch acquisition ends, a latch is let
	// go, entries leave from outside, or a write-back ends: PLManager and
	// dropRegistrations wait on it.
	plChanged *sync.Cond
	pl        *PLManager

	// The callbacks are installed while the home may be calling them: a
	// promotion builds the new RW's engine on the RO's pool.
	invalidateFn atomic.Pointer[func(types.PageID)]
	slabFailFn   atomic.Pointer[func([]types.PageID)]
}

// unregisterBatch is how many idle entries one cb.reclaim asks a holder for.
const unregisterBatch = 16

// registration is one entry of the node's registration table.
type registration struct {
	res   RegisterResult
	users int // local holders; 0 = idle, or busy
	// idle is the entry's place in Pool.idle while it is idle.
	idle *list.Element
	// done is non-nil while the entry is busy: a round trip about the page
	// is on the wire — its first page_register, or the unreg batch that
	// carries it — and the entry leaves or becomes held when done closes.
	// seq is the drop count a register's reply is checked against.
	done chan struct{}
	seq  uint64
	// writes counts write-backs through the entry on the wire; a drop
	// waits for them, so none lands in a slot the home has given away.
	writes int
	// pl is the page's global latch as this node holds it; acquiring is
	// set while a LockX or LockS of the page is on the wire.
	pl        plRecord
	acquiring bool
}

// unregBatch is one unreg round trip; done closes when it is answered.
// latches are the words of the sticky X latches its pages held.
type unregBatch struct {
	pages   []types.PageID
	latches []rdma.Addr
	done    chan struct{}
}

// poolMetrics are the librmem client-side counters, one per §3.1 API
// call plus the home-initiated invalidation and purge callbacks.
type poolMetrics struct {
	register     *stat.Counter // page_register round trips
	regCached    *stat.Counter // page_register calls answered from the registration table
	unregister   *stat.Counter // page_unregister round trips (batches: reclaim or Flush)
	unregPages   *stat.Counter // pages carried by those batches
	pageRead     *stat.Counter // one-sided page_read verbs
	pageWrite    *stat.Counter // one-sided page_write verbs
	pibCheck     *stat.Counter // one-sided PIB staleness probes
	invSent      *stat.Counter // page_invalidate round trips issued (RW); one per batch
	invSentPages *stat.Counter // pages carried by those batches
	invRecv      *stat.Counter // invalidation callbacks received; one per batch
	slabFail     *stat.Counter // pages reported lost to slab crashes
}

func newPoolMetrics(r *stat.Registry) poolMetrics {
	return poolMetrics{
		register:     r.Counter("rmem.register.ops"),
		regCached:    r.Counter("rmem.register.cached"),
		unregister:   r.Counter("rmem.unregister.ops"),
		unregPages:   r.Counter("rmem.unregister.pages"),
		pageRead:     r.Counter("rmem.page_read.ops"),
		pageWrite:    r.Counter("rmem.page_write.ops"),
		pibCheck:     r.Counter("rmem.pib_check.ops"),
		invSent:      r.Counter("rmem.invalidate.sent"),
		invSentPages: r.Counter("rmem.invalidate.sent_pages"),
		invRecv:      r.Counter("rmem.invalidate.recv"),
		slabFail:     r.Counter("rmem.slabfail.pages"),
	}
}

// NewPool connects a database node to the pool served by home. The first
// round trip learns the node's owner index (used in PL latch words).
func NewPool(ep *rdma.Endpoint, cfg Config, home rdma.NodeID) (*Pool, error) {
	p := &Pool{ep: ep, met: newPoolMetrics(ep.Metrics()), home: home, regs: make(map[types.PageID]*registration), idle: list.New()}
	// An RPC on purpose: the hello handshake allocates this node's owner
	// index in the home's directory, and server-side state assignment
	// cannot be a one-sided read.
	resp, err := ep.Call(home, method("hello"), nil)
	if err != nil {
		return nil, fmt.Errorf("rmem: connecting to home %s: %w", home, err)
	}
	rd := wire.NewReader(resp)
	ownerIdx := rd.U16()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	p.plChanged = sync.NewCond(&p.mu)
	p.pl = newPLManager(p, cfg, ownerIdx)
	ep.RegisterHandler(method("cb.inv"), p.handleInvalidateCB)
	ep.RegisterHandler(method("cb.slabfail"), p.handleSlabFailCB)
	ep.RegisterHandler(method("cb.reclaim"), p.handleReclaimCB)
	return p, nil
}

// PL returns the node's global page latch manager.
func (p *Pool) PL() *PLManager { return p.pl }

// Home returns the current home node id.
func (p *Pool) Home() rdma.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.home
}

// SwitchHome repoints the client after a home failover (every address in
// the table becomes invalid: a page's next fill registers it again). The
// registration table goes with the old home, latches and all: the PL and
// PIB addresses in it point into that node's memory.
func (p *Pool) SwitchHome(home rdma.NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.home = home
	p.regs = make(map[types.PageID]*registration)
	p.idle.Init()
	p.dropSeq++
	p.plChanged.Broadcast()
}

// OnInvalidate installs the callback run when the home invalidates a page
// this node holds (it must be lock-light: it runs on the RPC path of the
// RW node's page_invalidate). nil clears it.
func (p *Pool) OnInvalidate(fn func(types.PageID)) { p.invalidateFn.Store(&fn) }

// OnSlabFailure installs the callback run when the home purges pages this
// node holds (slab crash, Shrink, RW takeover), after the table has
// dropped them. nil clears it.
func (p *Pool) OnSlabFailure(fn func([]types.PageID)) { p.slabFailFn.Store(&fn) }

// writePages / readPages are the one page-list wire format (count + ids)
// of unreg, inv, the takeover reply and the cb.inv and cb.slabfail
// callbacks.
func writePages(w *wire.Writer, pages []types.PageID) {
	w.U32(uint32(len(pages)))
	for _, pg := range pages {
		w.U32(uint32(pg.Space))
		w.U32(uint32(pg.No))
	}
}

func readPages(rd *wire.Reader) []types.PageID {
	pages := make([]types.PageID, rd.Count(8))
	for i := range pages {
		pages[i] = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	}
	return pages
}

// Register implements page_register: obtain the page's remote address,
// incrementing its reference count (allocating it if absent). A page this
// node holds or keeps idle is answered from the table (Exists=true). The
// home reclaims idle entries from every holder, this node included,
// before it answers ErrOutOfMemory.
func (p *Pool) Register(page types.PageID) (RegisterResult, error) {
	// Counted, not unbounded: a round goes again only if a drop callback or
	// a home switch overtook its reply, which takes a slab crash, a Shrink
	// or a failover each time.
	for try := 0; try < 4; try++ {
		r, res := p.claim(page)
		if r == nil {
			return res, nil
		}
		res, err := p.registerAtHome(page)
		p.mu.Lock()
		// The reply may describe a slot the home has since taken away.
		overtaken := err == nil && p.dropSeq != r.seq
		done := r.done
		if p.regs[page] == r { // else SwitchHome emptied the table
			if err == nil && !overtaken {
				r.res, r.users, r.done = res, 1, nil
			} else {
				delete(p.regs, page)
			}
		}
		p.mu.Unlock()
		close(done)
		if !overtaken {
			return res, err
		}
	}
	return RegisterResult{}, fmt.Errorf("rmem: registering %s: the pool kept dropping registrations under the reply", page)
}

// claim answers a Register from the table if the page is held or idle
// (a nil entry comes back with the result). If the page is absent it
// leaves a busy placeholder, which the caller resolves with the home's
// answer. If a round trip about the page is on the wire it waits first:
// registers of one page go to the home one at a time — the home's PRD is
// a set, so two AddRefs racing one Unref would leave the node counting on
// a reference the home has dropped — and a new AddRef must not reach the
// home before the Unref of a batch in flight, for the same reason.
func (p *Pool) claim(page types.PageID) (*registration, RegisterResult) {
	for {
		p.mu.Lock()
		r := p.regs[page]
		if r == nil {
			r = &registration{done: make(chan struct{}), seq: p.dropSeq}
			p.regs[page] = r
			p.mu.Unlock()
			return r, RegisterResult{}
		}
		if done := r.done; done != nil {
			p.mu.Unlock()
			<-done
			continue
		}
		p.leaveIdleLocked(r)
		r.users++
		res := r.res
		p.mu.Unlock()
		p.met.regCached.Inc()
		res.Exists = true
		return nil, res
	}
}

// leaveIdleLocked takes r off the idle list, if it is on it.
func (p *Pool) leaveIdleLocked(r *registration) {
	if r.idle != nil {
		p.idle.Remove(r.idle)
		r.idle = nil
	}
}

func (p *Pool) registerAtHome(page types.PageID) (RegisterResult, error) {
	p.met.register.Inc()
	w := wire.NewWriter(8)
	w.U32(uint32(page.Space))
	w.U32(uint32(page.No))
	home := p.Home()
	resp, err := p.ep.Call(home, method("reg"), w.Bytes())
	if err != nil {
		return RegisterResult{}, err
	}
	rd := wire.NewReader(resp)
	var res RegisterResult
	res.Exists = rd.Bool()
	slabNode := rdma.NodeID(rd.String())
	slabRegion := rd.U32()
	dataOff := rd.U64()
	metaRegion := rd.U32()
	slotOff := rd.U64()
	rd.U16() // owner index: fixed at hello, the same on every home
	if err := rd.Err(); err != nil {
		return RegisterResult{}, err
	}
	res.Data = rdma.Addr{Node: slabNode, Region: slabRegion, Off: dataOff}
	res.PL = rdma.Addr{Node: home, Region: metaRegion, Off: slotOff}
	res.PIB = rdma.Addr{Node: home, Region: metaRegion, Off: slotOff + 8}
	return res, nil
}

// Lookup returns the page's addresses while a local user holds its entry.
// A node's one frame of a page is the page's only local user, so they are
// that frame's; a purge drops the entry, and with it the addresses.
func (p *Pool) Lookup(page types.PageID) (RegisterResult, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r := p.regs[page]; r != nil && r.users > 0 {
		return r.res, true
	}
	return RegisterResult{}, false
}

// Unregister implements page_unregister: one local holder lets go. The
// last one leaves the entry idle, at the back of the idle list; the home
// hears of it only when it reclaims the entry, or at Flush. A page this
// node does not hold (never registered, already idle, or dropped by the
// home meanwhile) is a no-op. The error is always nil.
//
//polarvet:fabric none no round trip: the entry stays, idle, until the home reclaims it
func (p *Pool) Unregister(page types.PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.regs[page]
	if r == nil || r.users == 0 {
		return nil
	}
	r.users--
	if r.users == 0 {
		r.idle = p.idle.PushBack(page)
	}
	return nil
}

// Flush gives the home every idle entry back, in one round trip (scale-in,
// promotion and SwitchRW call it, so that pages no node uses count as
// unreferenced).
func (p *Pool) Flush() error {
	p.mu.Lock()
	b := p.takeIdleLocked(p.idle.Len())
	p.mu.Unlock()
	return p.sendUnregister(b)
}

// handleReclaimCB serves the home's cb.reclaim: it ran out of slots and
// asks for up to n idle entries. They go in one unreg round trip before
// the reply, so the home finds them unreferenced when it retries; a
// Register of one of them meanwhile waits for that round trip (the
// in-flight rule). The reply is how many pages were given up.
func (p *Pool) handleReclaimCB(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	n := int(rd.U32())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	b := p.takeIdleLocked(n)
	p.mu.Unlock()
	if err := p.sendUnregister(b); err != nil {
		return nil, err
	}
	given := 0
	if b != nil {
		given = len(b.pages)
	}
	w := wire.NewWriter(4)
	w.U32(uint32(given))
	return w.Bytes(), nil
}

// takeIdleLocked turns up to n of the oldest idle entries into a batch in
// flight (nil if there are none). A page's PL record leaves with its
// entry: a sticky X latch's word goes into the batch, to be cleared
// before the unreg, while the slot is still the node's. A revoke that
// comes meanwhile finds no latch, and the home finds the word clear on
// its next look. An entry whose latch a critical section pins, or an
// acquisition is taking, stays.
func (p *Pool) takeIdleLocked(n int) *unregBatch {
	b := &unregBatch{done: make(chan struct{})}
	for el := p.idle.Front(); el != nil && len(b.pages) < n; {
		next := el.Next()
		page := el.Value.(types.PageID)
		if r := p.regs[page]; r.pl.pins == 0 && !r.acquiring {
			p.idle.Remove(el)
			r.idle, r.done = nil, b.done
			b.pages = append(b.pages, page)
			if r.pl.held { // an unpinned latch is a sticky X
				b.latches = append(b.latches, r.res.PL)
			}
			r.pl = plRecord{}
		}
		el = next
	}
	if len(b.pages) == 0 {
		return nil
	}
	return b
}

// sendUnregister performs a batch's round trip (p.mu released: it is a
// fabric call) and retires its entries. On an error the home may or may
// not have applied it; the entries go either way, and a reference left
// behind is reclaimed with the node's others when it is kicked (failed
// callback, RW takeover).
func (p *Pool) sendUnregister(b *unregBatch) error {
	if b == nil {
		return nil
	}
	for _, x := range b.latches {
		// On an error the home is unreachable: the unreg below fails too,
		// and the next RW's takeover clears the word.
		_ = p.pl.releaseX(x)
	}
	p.met.unregister.Inc()
	p.met.unregPages.Add(uint64(len(b.pages)))
	w := wire.NewWriter(4 + 8*len(b.pages))
	writePages(w, b.pages)
	_, err := p.ep.Call(p.Home(), method("unreg"), w.Bytes())
	p.mu.Lock()
	for _, page := range b.pages {
		if r := p.regs[page]; r != nil && r.done == b.done {
			delete(p.regs, page)
		}
	}
	p.mu.Unlock()
	close(b.done)
	return err
}

// dropRegistrations forgets pages whose addresses the home has taken
// away, and with them their PL records: the latch words went with the
// slots. It waits out the write-backs through them (WriteBack). A busy
// entry stays until its round trip is answered — a Register waiting on a
// batch still orders after the Unref, and a first register sees from the
// drop count that its reply cannot be trusted.
func (p *Pool) dropRegistrations(pages []types.PageID) {
	p.mu.Lock()
	for _, page := range pages {
		r := p.regs[page]
		for r != nil && r.writes > 0 {
			p.plChanged.Wait()
			r = p.regs[page]
		}
		if r == nil || r.done != nil {
			continue
		}
		p.leaveIdleLocked(r)
		delete(p.regs, page)
	}
	p.dropSeq++
	p.plChanged.Broadcast()
	p.mu.Unlock()
}

// ReadPage implements page_read: one-sided RDMA read of the page into buf.
func (p *Pool) ReadPage(data rdma.Addr, buf []byte) error {
	p.met.pageRead.Inc()
	return p.ep.Read(data, buf)
}

// WritePage implements page_write: one-sided RDMA write of the page, then
// clear the PIB bit — the remote copy is now the latest version.
func (p *Pool) WritePage(data rdma.Addr, buf []byte, pib rdma.Addr) error {
	p.met.pageWrite.Inc()
	if err := p.ep.Write(data, buf); err != nil {
		return err
	}
	var zero [8]byte
	return p.ep.Write(pib, zero[:])
}

// WriteBack is WritePage at the addresses of the page's held entry, or
// ErrNotRegistered if there is none. The home gives a purged slot to
// another page only once this node has dropped the entry, which waits for
// the write.
func (p *Pool) WriteBack(page types.PageID, buf []byte) error {
	p.mu.Lock()
	r := p.regs[page]
	if r == nil || r.users == 0 {
		p.mu.Unlock()
		return ErrNotRegistered
	}
	r.writes++
	res := r.res
	p.mu.Unlock()
	err := p.WritePage(res.Data, buf, res.PIB)
	p.mu.Lock()
	r.writes--
	p.plChanged.Broadcast()
	p.mu.Unlock()
	return err
}

// PIBStale reads the page's home PIB word with a one-sided read: true
// means the remote copy is outdated (the RW holds a newer local version).
//
//polarvet:fabric O(1) exactly one one-sided load of the PIB word
func (p *Pool) PIBStale(pib rdma.Addr) (bool, error) {
	p.met.pibCheck.Inc()
	v, err := p.ep.Load64(pib)
	if err != nil {
		return false, err
	}
	return v != pibFresh, nil
}

// InvalidateBatch implements page_invalidate (RW only) for every page an
// MTR wrote, in one round trip: the home synchronously sets each page's
// PIB bit and notifies each holder once with its whole affected-page
// list, so the per-commit coherence cost is O(distinct holders), not
// O(pages × holders).
//
//polarvet:fabric O(1) one batched page_invalidate round trip per call
func (p *Pool) InvalidateBatch(pages []types.PageID) error {
	if len(pages) == 0 {
		return nil
	}
	p.met.invSent.Inc()
	p.met.invSentPages.Add(uint64(len(pages)))
	w := wire.NewWriter(4 + 8*len(pages))
	writePages(w, pages)
	_, err := p.ep.Call(p.Home(), method("inv"), w.Bytes())
	return err
}

// handleInvalidateCB serves the home's batched invalidation callback:
// count + page ids, every page this node holds that the commit stalled.
func (p *Pool) handleInvalidateCB(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	pages := readPages(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	p.met.invRecv.Inc()
	if fn := p.invalidateFn.Load(); fn != nil && *fn != nil {
		for _, page := range pages {
			(*fn)(page)
		}
	}
	return nil, nil
}

// handleSlabFailCB serves the home's "addresses gone" callback: the home
// purged the pages (slab crash, Shrink, RW takeover), and their slots go to
// other pages once every holder has answered. The table forgets them
// before the node's caches are told.
func (p *Pool) handleSlabFailCB(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	pages := readPages(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	p.met.slabFail.Add(uint64(len(pages)))
	p.dropRegistrations(pages)
	if fn := p.slabFailFn.Load(); fn != nil && *fn != nil {
		(*fn)(pages)
	}
	return nil, nil
}
