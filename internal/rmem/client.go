package rmem

import (
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
type Pool struct {
	ep  *rdma.Endpoint
	met poolMetrics

	mu   sync.Mutex
	home rdma.NodeID
	pl   *PLManager

	invalidateFn func(types.PageID)
	slabFailFn   func([]types.PageID)
}

// poolMetrics are the librmem client-side counters, one per §3.1 API
// call plus the two home-initiated callbacks.
type poolMetrics struct {
	register     *stat.Counter // page_register round trips
	unregister   *stat.Counter // page_unregister round trips
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
		unregister:   r.Counter("rmem.unregister.ops"),
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
	p := &Pool{ep: ep, met: newPoolMetrics(ep.Metrics()), home: home}
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
// addresses become invalid; callers must drop them and re-register).
func (p *Pool) SwitchHome(home rdma.NodeID) {
	p.mu.Lock()
	p.home = home
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

// Register implements page_register: obtain the page's remote address,
// incrementing its reference count (allocating it if absent).
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
	p.met.register.Inc()
	w := wire.NewWriter(12)
	w.U32(uint32(page.Space))
	w.U32(uint32(page.No))
	w.Bool(noAlloc)
	resp, err := p.ep.Call(p.Home(), method("reg"), w.Bytes())
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
	home := p.Home()
	res.Data = rdma.Addr{Node: slabNode, Region: slabRegion, Off: dataOff}
	res.PL = rdma.Addr{Node: home, Region: metaRegion, Off: slotOff}
	res.PIB = rdma.Addr{Node: home, Region: metaRegion, Off: slotOff + 8}
	return res, nil
}

// Unregister implements page_unregister: drop this node's reference.
func (p *Pool) Unregister(page types.PageID) error {
	p.met.unregister.Inc()
	_, err := p.ep.Call(p.Home(), method("unreg"), p.pageReq(page))
	return err
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
	w.U32(uint32(len(pages)))
	for _, pg := range pages {
		w.U32(uint32(pg.Space))
		w.U32(uint32(pg.No))
	}
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
	pages := make([]types.PageID, int(rd.U32()))
	for i := range pages {
		pages[i] = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	}
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

func (p *Pool) handleSlabFailCB(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	n := int(rd.U32())
	pages := make([]types.PageID, n)
	for i := range pages {
		pages[i] = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	p.met.slabFail.Add(uint64(len(pages)))
	if p.slabFailFn != nil {
		p.slabFailFn(pages)
	}
	return nil, nil
}
