package rmem

import (
	"errors"
	"fmt"
	"sync"

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
// is *queued* — still referenced at the home, addresses still good — and
// the unregisterBatch-th queued page sends them all in one unreg round
// trip, during which they are *in flight*. Registering a held or queued
// page costs no round trip; registering one that is in flight, or that
// another goroutine is registering, waits for that round trip first. An
// entry leaves when its batch is answered, when the home says its
// addresses are gone (cb.slabfail: slab crash, Shrink migration,
// ForceEvict) and when the node changes home. So an entry always means
// "the home counts this node as a holder", and the home never evicts
// under it; up to unregisterBatch unregistered pages per node stay pinned
// in the pool for that — the most recently evicted here, the last the
// home's LRU would have chosen.
type Pool struct {
	ep  *rdma.Endpoint
	met poolMetrics

	mu      sync.Mutex
	home    rdma.NodeID
	regs    map[types.PageID]*registration
	queue   []types.PageID // queued pages, oldest first
	dropSeq uint64         // counts the times entries were dropped from outside (callback, SwitchHome)
	pl      *PLManager

	invalidateFn func(types.PageID)
	slabFailFn   func([]types.PageID)
}

// unregisterBatch is how many queued unregisters make one unreg round trip.
const unregisterBatch = 16

// registration is one entry of the node's registration table.
type registration struct {
	res   RegisterResult
	users int // local holders; 0 = queued, or busy
	// done is non-nil while the entry is busy: a round trip about the page
	// is on the wire — its first page_register, or the unreg batch that
	// carries it — and the entry leaves or becomes held when done closes.
	// seq is the drop count a register's reply is checked against.
	done chan struct{}
	seq  uint64
}

// unregBatch is one unreg round trip; done closes when it is answered.
type unregBatch struct {
	pages []types.PageID
	done  chan struct{}
}

// poolMetrics are the librmem client-side counters, one per §3.1 API
// call plus the two home-initiated callbacks.
type poolMetrics struct {
	register     *stat.Counter // page_register round trips
	regCached    *stat.Counter // page_register calls answered from the registration table
	unregister   *stat.Counter // page_unregister round trips (batches)
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
	p := &Pool{ep: ep, met: newPoolMetrics(ep.Metrics()), home: home, regs: make(map[types.PageID]*registration)}
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
	p.pl = NewPLManager(ep, cfg, home, ownerIdx)
	ep.RegisterHandler(method("cb.inv"), p.handleInvalidateCB)
	ep.RegisterHandler(method("cb.slabfail"), p.handleSlabFailCB)
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

// SwitchHome repoints the client after a home failover (all cached remote
// addresses become invalid; callers must drop them and re-register). The
// registration table goes with the old home: the PL and PIB addresses in
// it point into that node's memory.
func (p *Pool) SwitchHome(home rdma.NodeID) {
	p.mu.Lock()
	p.home = home
	p.regs = make(map[types.PageID]*registration)
	p.queue = nil
	p.dropSeq++
	p.mu.Unlock()
	p.pl.SetHome(home)
}

// OnInvalidate installs the callback run when the home invalidates a page
// this node holds (it must be lock-light: it runs on the RPC path of the
// RW node's page_invalidate).
func (p *Pool) OnInvalidate(fn func(types.PageID)) { p.invalidateFn = fn }

// OnSlabFailure installs the callback run when pages are lost to a slab
// node crash.
func (p *Pool) OnSlabFailure(fn func([]types.PageID)) { p.slabFailFn = fn }

func (p *Pool) pageReq(page types.PageID) []byte {
	w := wire.NewWriter(8)
	w.U32(uint32(page.Space))
	w.U32(uint32(page.No))
	return w.Bytes()
}

// writePages / readPages are the one page-list wire format (count + ids)
// of unreg, inv and the two callbacks.
func writePages(w *wire.Writer, pages []types.PageID) {
	w.U32(uint32(len(pages)))
	for _, pg := range pages {
		w.U32(uint32(pg.Space))
		w.U32(uint32(pg.No))
	}
}

func readPages(rd *wire.Reader) []types.PageID {
	pages := make([]types.PageID, int(rd.U32()))
	for i := range pages {
		pages[i] = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	}
	return pages
}

// Register implements page_register: obtain the page's remote address,
// incrementing its reference count (allocating it if absent). A page this
// node still holds or has only queued for unregistering is answered from
// the table (Exists=true), cancelling the queued unregister.
func (p *Pool) Register(page types.PageID) (RegisterResult, error) {
	return p.register(page, false)
}

// RegisterIfCached is page_register with the scan-pollution guard: it
// takes a reference only if the page is already in the pool, and never
// allocates (§3.1.3: full-table-scan pages are not written into remote
// memory). Exists=false means no reference was taken.
func (p *Pool) RegisterIfCached(page types.PageID) (RegisterResult, error) {
	return p.register(page, true)
}

func (p *Pool) register(page types.PageID, noAlloc bool) (RegisterResult, error) {
	// Counted, not unbounded: a round goes again only if a drop callback or
	// a home switch overtook its reply, which takes a slab crash, a Shrink
	// or a failover each time.
	for try := 0; try < 4; try++ {
		r, res := p.claim(page)
		if r == nil {
			return res, nil
		}
		res, err := p.registerAtHome(page, noAlloc)
		if errors.Is(err, ErrOutOfMemory) {
			// Our own queued unregisters may be what pins the pool full.
			if sent, ferr := p.flush(); sent && ferr == nil {
				res, err = p.registerAtHome(page, noAlloc)
			}
		}
		referenced := err == nil && (res.Exists || !noAlloc)
		p.mu.Lock()
		// The reply may describe a slot the home has since taken away.
		overtaken := referenced && p.dropSeq != r.seq
		done := r.done
		if p.regs[page] == r { // else SwitchHome emptied the table
			if referenced && !overtaken {
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

// claim answers a Register from the table if the page is held or queued
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
		if r.users == 0 {
			removeLast(&p.queue, page)
		}
		r.users++
		res := r.res
		p.mu.Unlock()
		p.met.regCached.Inc()
		res.Exists = true
		return nil, res
	}
}

func (p *Pool) registerAtHome(page types.PageID, noAlloc bool) (RegisterResult, error) {
	p.met.register.Inc()
	w := wire.NewWriter(12)
	w.U32(uint32(page.Space))
	w.U32(uint32(page.No))
	w.Bool(noAlloc)
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
	if noAlloc && !res.Exists {
		return res, nil // no reference taken
	}
	res.Data = rdma.Addr{Node: slabNode, Region: slabRegion, Off: dataOff}
	res.PL = rdma.Addr{Node: home, Region: metaRegion, Off: slotOff}
	res.PIB = rdma.Addr{Node: home, Region: metaRegion, Off: slotOff + 8}
	return res, nil
}

// Unregister implements page_unregister: one local holder lets go. The
// last one queues the page; the home hears of it with the batch that
// fills up next, or at Flush — it needs to know only before it runs short
// of unreferenced slots. A page this node does not hold (never
// registered, already queued, or dropped by the home meanwhile) is a
// no-op.
//
//polarvet:fabric O(1) at most one batched unreg round trip, and that on one call in unregisterBatch
func (p *Pool) Unregister(page types.PageID) error {
	p.mu.Lock()
	r := p.regs[page]
	if r == nil || r.users == 0 {
		p.mu.Unlock()
		return nil
	}
	r.users--
	var b *unregBatch
	if r.users == 0 {
		p.queue = append(p.queue, page)
		if len(p.queue) >= unregisterBatch {
			b = p.takeQueueLocked()
		}
	}
	p.mu.Unlock()
	return p.sendUnregister(b)
}

// Flush sends whatever unregisters are queued, in one round trip.
func (p *Pool) Flush() error {
	_, err := p.flush()
	return err
}

func (p *Pool) flush() (sent bool, err error) {
	p.mu.Lock()
	b := p.takeQueueLocked()
	p.mu.Unlock()
	return b != nil, p.sendUnregister(b)
}

// takeQueueLocked turns the queue into a batch in flight (nil if empty).
func (p *Pool) takeQueueLocked() *unregBatch {
	if len(p.queue) == 0 {
		return nil
	}
	b := &unregBatch{pages: p.queue, done: make(chan struct{})}
	p.queue = nil
	for _, page := range b.pages {
		p.regs[page].done = b.done
	}
	return b
}

// sendUnregister performs a batch's round trip (p.mu released: it is a
// fabric call) and retires its entries. On an error the home may or may
// not have applied it; the entries go either way, and a reference left
// behind is reclaimed with the node's others (DropNodeRefs).
func (p *Pool) sendUnregister(b *unregBatch) error {
	if b == nil {
		return nil
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
// away. A busy entry stays until its round trip is answered — a Register
// waiting on a batch still orders after the Unref, and a first register
// sees from the drop count that its reply cannot be trusted.
func (p *Pool) dropRegistrations(pages []types.PageID) {
	p.mu.Lock()
	for _, page := range pages {
		r := p.regs[page]
		if r == nil || r.done != nil {
			continue
		}
		if r.users == 0 {
			removeLast(&p.queue, page)
		}
		delete(p.regs, page)
	}
	p.dropSeq++
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

// ReleaseNodeLatches asks the home to force-release all PL latches held by
// node (recovery step 6).
func (p *Pool) ReleaseNodeLatches(node rdma.NodeID) error {
	w := wire.NewWriter(16)
	w.String(string(node))
	_, err := p.ep.Call(p.Home(), method("pl.releasenode"), w.Bytes())
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
	if p.invalidateFn != nil {
		for _, page := range pages {
			p.invalidateFn(page)
		}
	}
	return nil, nil
}

// handleSlabFailCB serves the home's "addresses gone" callback: the
// pages' slots were lost to a slab crash, moved by a Shrink, or evicted by
// force. The table forgets them before the node's caches are told.
func (p *Pool) handleSlabFailCB(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	pages := readPages(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	p.met.slabFail.Add(uint64(len(pages)))
	p.dropRegistrations(pages)
	if p.slabFailFn != nil {
		p.slabFailFn(pages)
	}
	return nil, nil
}
