// Package engine implements the PolarDB Serverless database engine that
// runs on RW and RO nodes: a record storage engine whose pages live in a
// three-tier hierarchy — node-local cache, shared remote memory pool, and
// PolarFS shared storage (§3).
//
// The engine is also the place where the paper's modification pipeline is
// enforced:
//
//	modify pages in local cache (under latches, logged into an MTR)
//	→ page_invalidate every modified page (§3.1.4)
//	→ append the MTR's redo to the log buffer
//	→ flusher persists redo to PolarFS log chunks (commit durability)
//	→ shipper sends records to page chunks (materialization, Figure 7)
//	→ only then may dirty pages be evicted anywhere in the hierarchy.
//
// Setting Deps.Pool to nil yields the classic shared-storage PolarDB
// baseline (private buffer pool, same storage); the benchmark harness uses
// that for the paper's PolarDB-vs-Serverless comparisons.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polardb/internal/btree"
	"polardb/internal/cache"
	"polardb/internal/plog"
	"polardb/internal/polarfs"
	"polardb/internal/rdma"
	"polardb/internal/rmem"
	"polardb/internal/stat"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// Reserved tablespaces.
const (
	// UndoSpace holds the transaction table (page 0) and undo records.
	UndoSpace types.SpaceID = 1
	// CatalogSpace holds the table catalog B+tree.
	CatalogSpace types.SpaceID = 2
	// FirstUserSpace is the first tablespace handed to user tables.
	FirstUserSpace types.SpaceID = 16
)

// Errors surfaced by the engine.
var (
	ErrNotRW       = errors.New("engine: operation requires the RW node")
	ErrClosed      = errors.New("engine: closed")
	ErrNoSuchTable = errors.New("engine: no such table")
	ErrTableExists = errors.New("engine: table already exists")
	ErrKeyExists   = errors.New("engine: key already exists")
	ErrKeyNotFound = errors.New("engine: key not found")
	ErrStalePage   = errors.New("engine: could not obtain a fresh page copy")
)

// Deps wires an engine to its substrates.
type Deps struct {
	EP   *rdma.Endpoint
	PFS  *polarfs.Client
	Pool *rmem.Pool // nil = no remote memory (shared-storage baseline)
}

// Config tunes an engine instance.
type Config struct {
	// ReadOnly marks an RO node.
	ReadOnly bool
	// RWNode is the current RW node id (needed by RO nodes for the CTS
	// region, purge-horizon leases and flush-page requests).
	RWNode rdma.NodeID
	// CTSRegionID is the RW node's CTS region (RO nodes).
	CTSRegionID uint32
	// CTSSlots sizes the CTS log.
	CTSSlots int
	// LocalCachePages sizes the node-local cache tier.
	LocalCachePages int
	// ROMode picks the RO traversal protocol: Optimistic (default,
	// §4.1) or PessimisticS (Figure 14's Plock).
	ROMode btree.TraverseMode
	// LockWait bounds row lock waits.
	LockWait time.Duration
	// CheckpointInterval drives coverage sync + redo truncation (0 = off).
	CheckpointInterval time.Duration
}

const (
	// shipInterval is the redo flusher/shipper idle tick.
	shipInterval = 500 * time.Microsecond
	// flushPageTimeout bounds an RO node's eng.flushpage request to the
	// RW (asking it to write a stale page back to remote memory).
	flushPageTimeout = 2 * time.Second
)

func (c *Config) applyDefaults() {
	if c.LocalCachePages == 0 {
		c.LocalCachePages = 1024
	}
	if c.LockWait == 0 {
		c.LockWait = 2 * time.Second
	}
	if c.CTSSlots == 0 {
		c.CTSSlots = txn.DefaultCTSSlots
	}
	if c.ROMode == 0 && c.ReadOnly {
		c.ROMode = btree.Optimistic
	}
}

// Engine is one database node's engine instance.
type Engine struct {
	cfg  Config
	ep   *rdma.Endpoint
	pfs  *polarfs.Client
	pool *rmem.Pool

	cache *cache.Cache

	// RW-only state.
	buf     *plog.Buffer
	cts     *txn.Service
	ctsReg  *rdma.Region
	locks   *txn.LockTable
	nextTrx atomic.Uint64

	// RO-only state.
	ctsCli *txn.Client
	// smoClock is the newest published redo LSN this node has seen: every
	// read view carries one, and a traversal that meets a newer stamp reads
	// the word again. SMOClock answers from it without touching the fabric.
	smoClock atomic.Uint64
	lease    atomic.Pointer[heldLease] // newest acknowledged purge-horizon lease
	leaseCh  chan leaseReq             // renewals for leaseKeeper; one waiting is enough

	// activeMu guards the in-flight read-write transactions and, among
	// them, the owners of an undo slot. The owners are what the CTS region's
	// view block publishes: every change to slotOwner is followed by
	// publishViewLocked under the same hold.
	activeMu  sync.Mutex
	active    map[types.TrxID]*Txn
	slotOwner map[int]types.TrxID

	// Read-view horizon tracking for purge: local read-only views, plus the
	// leases RO nodes take out for the views they read one-sided.
	roViewsMu sync.Mutex
	roViews   map[*Txn]types.Timestamp
	roLeases  []roLease // in expiry order

	adoptedMu sync.Mutex
	adopted   map[types.TrxID]*Txn

	undoMu   sync.Mutex
	undoPage types.PageNo
	undoOff  uint16
	// undoExact: no undo record lies past the cursor. True from Bootstrap.
	// Recover's cursor is the last replayed header write, which a crashed
	// RW's furthest reservation may have outrun, so the first roll-over
	// after it still reads its page from storage.
	undoExact bool

	// flightMu guards the fills in progress, and the admission of the
	// warmer's workers against Close (see warm).
	flightMu sync.Mutex
	flights  map[uint64]*flight

	treesMu sync.Mutex
	trees   map[types.SpaceID]*btree.Tree

	tablesMu sync.Mutex
	tables   map[string]*Table

	shippedMu   sync.Mutex
	shippedLSN  types.LSN
	shippedCond *sync.Cond
	nudge       chan struct{}

	// mtrCond wakes flush-page waiters when a mini-transaction releases
	// its frames (see handleFlushPage and Mtr.release).
	mtrMu   sync.Mutex
	mtrCond *sync.Cond

	backfillCh chan backfillItem

	scanGuard atomic.Int32 // >0: storage misses skip remote-memory population

	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	met engineMetrics
}

// engineMetrics are the node registry's view of engine events: the
// three-tier page hierarchy, the §3.1.4 modification pipeline, and the
// §4.2/§3.2 cross-node protocols.
type engineMetrics struct {
	localHit    *stat.Counter // Fetch served from the local cache tier
	remoteRead  *stat.Counter // pages read from the remote memory tier
	storageRead *stat.Counter // pages read from PolarFS
	fresh       *stat.Counter // allocated pages created in memory, no read
	warmCalls   *stat.Counter // warm calls that found something to fetch
	warmPages   *stat.Counter // pages those calls set out to fetch
	mtrCommit   *stat.Counter // non-empty mini-transactions committed
	txnCommit   *stat.Counter // user transactions committed
	txnAbort    *stat.Counter // user transactions rolled back
	flushServed *stat.Counter // RO-triggered write-backs served (RW)
	smoLatchX   *stat.Counter // global latch X acquisitions (SMOs)
	smoLatchS   *stat.Counter // global latch S acquisitions (RO Plock)
	flushBatch  *stat.Counter // redo batches persisted by the shipper
	flushRecs   *stat.Counter // redo records persisted by the shipper
}

func newEngineMetrics(r *stat.Registry) engineMetrics {
	return engineMetrics{
		localHit:    r.Counter("engine.page.local_hit"),
		remoteRead:  r.Counter("engine.page.remote_read"),
		storageRead: r.Counter("engine.page.storage_read"),
		fresh:       r.Counter("engine.page.fresh"),
		warmCalls:   r.Counter("engine.warm.calls"),
		warmPages:   r.Counter("engine.warm.pages"),
		mtrCommit:   r.Counter("engine.mtr.commit"),
		txnCommit:   r.Counter("engine.txn.commit"),
		txnAbort:    r.Counter("engine.txn.abort"),
		flushServed: r.Counter("engine.flush.served"),
		smoLatchX:   r.Counter("engine.smo.latch_x"),
		smoLatchS:   r.Counter("engine.smo.latch_s"),
		flushBatch:  r.Counter("engine.redo.flush.batches"),
		flushRecs:   r.Counter("engine.redo.flush.records"),
	}
}

// NewRW creates the engine for the read-write node. Call Bootstrap (fresh
// volume) or Recover (takeover) before serving transactions.
func NewRW(deps Deps, cfg Config) (*Engine, error) {
	cfg.ReadOnly = false
	cfg.applyDefaults()
	e := newEngine(deps, cfg)
	e.ctsReg = deps.EP.RegisterRegion(txn.RegionSize(cfg.CTSSlots))
	e.cts = txn.NewService(e.ctsReg, cfg.CTSSlots)
	e.locks = txn.NewLockTable(cfg.LockWait)
	e.ep.RegisterHandler("eng.flushpage", e.handleFlushPage)
	e.ep.RegisterHandler(leaseMethod, e.handleLease)
	return e, nil
}

// NewRO creates the engine for a read-only node attached to cfg.RWNode.
func NewRO(deps Deps, cfg Config) (*Engine, error) {
	cfg.ReadOnly = true
	cfg.applyDefaults()
	e := newEngine(deps, cfg)
	e.ctsCli = txn.NewClient(deps.EP, cfg.RWNode, cfg.CTSRegionID, cfg.CTSSlots)
	e.start()
	return e, nil
}

type roLease struct {
	ts      types.Timestamp
	expires time.Time
}

const (
	// roLeaseWindow is how long one lease from an RO node holds back the
	// purge horizon (RO transactions are expected to be shorter than this).
	roLeaseWindow = 10 * time.Second
	// roLeaseRenew is how often an RO node with read traffic sends the next.
	roLeaseRenew = time.Second
	// leaseMethod is the RPC an RO node takes a lease out with: 8 bytes,
	// the cts_read of the view the lease is for.
	leaseMethod  = "cts.lease"
	leaseTimeout = 2 * time.Second
)

func newEngine(deps Deps, cfg Config) *Engine {
	e := &Engine{
		cfg:        cfg,
		ep:         deps.EP,
		pfs:        deps.PFS,
		pool:       deps.Pool,
		flights:    make(map[uint64]*flight),
		trees:      make(map[types.SpaceID]*btree.Tree),
		tables:     make(map[string]*Table),
		active:     make(map[types.TrxID]*Txn),
		roViews:    make(map[*Txn]types.Timestamp),
		slotOwner:  make(map[int]types.TrxID),
		nudge:      make(chan struct{}, 1),
		leaseCh:    make(chan leaseReq, 1),
		backfillCh: make(chan backfillItem, 4096),
		closeCh:    make(chan struct{}),
		met:        newEngineMetrics(deps.EP.Metrics()),
	}
	e.shippedCond = sync.NewCond(&e.shippedMu)
	e.mtrCond = sync.NewCond(&e.mtrMu)
	e.cache = cache.New(cfg.LocalCachePages, e.onEvict)
	if e.pool != nil {
		e.pool.OnInvalidate(e.onInvalidate)
		e.pool.OnSlabFailure(e.onAddressesGone)
	}
	return e
}

// start launches background workers (RW: after bootstrap/recovery).
func (e *Engine) start() {
	if !e.cfg.ReadOnly {
		e.wg.Add(2)
		go e.shipper()
		go e.backfillWorker()
		if e.cfg.CheckpointInterval > 0 {
			e.wg.Add(1)
			go e.checkpointer()
		}
	} else {
		e.wg.Add(1)
		go e.leaseKeeper()
	}
}

// Close stops background workers. It does not flush state: use
// PlannedHandover for a clean shutdown.
func (e *Engine) Close() {
	e.flightMu.Lock() // warm admits its workers under it
	was := e.closed.Swap(true)
	e.flightMu.Unlock()
	if was {
		return
	}
	close(e.closeCh)
	e.wg.Wait()
}

// EP returns the node's fabric endpoint.
func (e *Engine) EP() *rdma.Endpoint { return e.ep }

// Cache returns the local cache (for stats).
func (e *Engine) Cache() *cache.Cache { return e.cache }

// Pool returns the remote memory client, or nil.
func (e *Engine) Pool() *rmem.Pool { return e.pool }

// CTSRegionID returns the RW node's CTS region id (cluster wiring).
func (e *Engine) CTSRegionID() uint32 {
	if e.ctsReg == nil {
		return 0
	}
	return e.ctsReg.ID()
}

// FlushedLSN returns the durable redo LSN (RW).
func (e *Engine) FlushedLSN() types.LSN {
	if e.buf == nil {
		return 0
	}
	return e.buf.FlushedLSN()
}

// ResizeLocalCache changes the local cache tier's capacity live.
func (e *Engine) ResizeLocalCache(pages int) error { return e.cache.Resize(pages) }

// ScanGuard marks the start of a large scan: while any guard is active,
// pages loaded from storage are NOT promoted into the remote memory pool,
// so full-table scans do not pollute the shared cache (§3.1.3). Release
// the guard with the returned func.
func (e *Engine) ScanGuard() func() {
	e.scanGuard.Add(1)
	var once sync.Once
	return func() { once.Do(func() { e.scanGuard.Add(-1) }) }
}

// ---------------------------------------------------------------------------
// Page access (btree.Store implementation)

// Fetch returns a pinned frame with the page's current contents, filling
// the local cache from remote memory or storage on a miss.
//
//polarvet:fabric O(1) the page-fetch path is a bounded number of round trips (register, PIB probe, one-sided page read) regardless of pool size
func (e *Engine) Fetch(id types.PageID) (*cache.Frame, error) {
	return e.fetch(id, false)
}

// FetchNew is Fetch for a page number the caller has just allocated and
// nothing was ever written to (a tablespace extension, the next undo
// page): a miss creates the page in memory — registered with the pool,
// zero-filled, LSN 0 — instead of reading zeroes back from remote memory
// or storage. The pool slot stays PIB-stale, so whatever image a crashed
// RW may have left there is never read, and the caller's MTR invalidates
// the page before another node can learn its number: an RO's first fetch
// asks this node for a write-back like for any dirty page. A cached page
// is returned as it is. RW only.
//
//polarvet:fabric O(1) at most the page_register round trip; no page image crosses the fabric
func (e *Engine) FetchNew(id types.PageID) (*cache.Frame, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	return e.fetch(id, true)
}

// flight is one in-progress fill of a local cache miss. Concurrent
// fetchers of the page wait on done; invalidated and addressesGone record
// a callback that arrived while the frame was not in the cache yet and so
// had no PIB bit to set, no addresses to forget.
type flight struct {
	done          chan struct{}
	invalidated   bool
	addressesGone bool
}

func (e *Engine) fetch(id types.PageID, fresh bool) (*cache.Frame, error) {
	for {
		if f := e.cache.Get(id); f != nil {
			if !f.Invalid() {
				e.met.localHit.Inc()
				return f, nil
			}
			if err := e.refreshFrame(f); err != nil {
				f.Unpin()
				return nil, err
			}
			return f, nil
		}
		// A detached dirty frame may still be writing back (its write-back
		// waits for redo shipping); loading from storage meanwhile would
		// resurrect a stale image and lose those writes. Wait it out.
		e.cache.WaitEvicting(id)
		e.flightMu.Lock()
		if fl, ok := e.flights[id.Key()]; ok {
			e.flightMu.Unlock()
			<-fl.done
			continue
		}
		// A fill inserts its frame before it leaves the flights map, so with
		// no flight here the page is nobody's — or it is resident, a fill
		// having finished since the miss above: filling it again would cost a
		// second read and hand back the first fill's frame unexamined.
		if resident, _ := e.cache.Probe(id); resident {
			e.flightMu.Unlock()
			continue
		}
		fl := &flight{done: make(chan struct{})}
		e.flights[id.Key()] = fl
		e.flightMu.Unlock()

		f, err := e.loadFrame(id, fresh)

		e.flightMu.Lock()
		delete(e.flights, id.Key())
		if err == nil && fl.addressesGone {
			f.Remote = cache.RemoteInfo{}
		}
		if err == nil && fl.invalidated {
			f.Invalidate()
		}
		close(fl.done)
		e.flightMu.Unlock()
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// onInvalidate is the cache-invalidation callback (§3.1.4): set the local
// PIB bit of the cached copy, and of the copy a fill in flight is about to
// insert — its image may have been read before the invalidation.
func (e *Engine) onInvalidate(id types.PageID) {
	e.flightMu.Lock()
	if fl, ok := e.flights[id.Key()]; ok {
		fl.invalidated = true
	}
	e.flightMu.Unlock()
	e.cache.Invalidate(id)
}

// onAddressesGone is the pool's other callback: the home took these
// pages' slots away (slab crash, Shrink migration, forced eviction at RW
// recovery), and librmem has already forgotten the registrations. The
// cached copy forgets its addresses too and re-registers on next use.
func (e *Engine) onAddressesGone(pages []types.PageID) {
	for _, id := range pages {
		e.flightMu.Lock()
		if fl, ok := e.flights[id.Key()]; ok {
			fl.invalidated, fl.addressesGone = true, true
		}
		e.flightMu.Unlock()
		if f := e.cache.Get(id); f != nil {
			f.Remote = cache.RemoteInfo{}
			f.Invalidate()
			f.Unpin()
		}
	}
}

// Unpin releases a fetched frame.
func (e *Engine) Unpin(f *cache.Frame) { f.Unpin() }

// loadFrame fills a new frame through the memory hierarchy, or, for a
// fresh page, registers it and leaves the frame zeroed.
func (e *Engine) loadFrame(id types.PageID, fresh bool) (*cache.Frame, error) {
	f := &cache.Frame{ID: id, Data: make([]byte, types.PageSize)}
	fromRemote := false
	allocated := false
	guarded := !fresh && e.scanGuard.Load() > 0
	if e.pool != nil {
		var res rmem.RegisterResult
		var err error
		if guarded {
			// Scan-pollution guard (§3.1.3): use the remote copy if one
			// exists, but never allocate one for scan traffic.
			res, err = e.pool.RegisterIfCached(id)
			if err == nil && !res.Exists {
				err = rmem.ErrOutOfMemory // storage-direct below, no pool refs
			}
		} else {
			res, err = e.pool.Register(id)
		}
		switch {
		case err == nil:
			f.Remote = cache.RemoteInfo{Registered: true, Data: res.Data, PL: res.PL, PIB: res.PIB}
			allocated = !res.Exists
			if res.Exists && !fresh {
				if err := e.readRemoteFresh(f); err == nil {
					fromRemote = true
				} else if !errors.Is(err, ErrStalePage) {
					_ = e.pool.Unregister(id) //polarvet:allow errdrop unwinding a failed fill; the fetch error already propagates and a leaked ref is reclaimed by DropNodeRefs
					return nil, err
				}
			}
		case errors.Is(err, rmem.ErrOutOfMemory) || errors.Is(err, rmem.ErrMetaFull):
			// Pool full: operate storage-direct for this page.
		default:
			return nil, err
		}
	}
	switch {
	case fresh:
		e.met.fresh.Inc()
	case fromRemote:
		e.adoptRemote(f)
	default:
		if err := e.fillFromStorage(f); err != nil {
			if f.Remote.Registered {
				_ = e.pool.Unregister(id) //polarvet:allow errdrop unwinding a failed fill; the fetch error already propagates and a leaked ref is reclaimed by DropNodeRefs
			}
			return nil, err
		}
		if f.Remote.Registered {
			// Populate the remote copy only when we allocated the remote
			// page (nobody else references it) or we are the RW (the sole
			// writer): an RO overwriting an existing remote page could
			// race the RW's invalidate/write-back and clear a PIB bit the
			// RW just set.
			if allocated || !e.cfg.ReadOnly {
				if err := e.pool.WritePage(f.Remote.Data, f.Data, f.Remote.PIB); err != nil {
					_ = e.pool.Unregister(id) //polarvet:allow errdrop demoting the page to storage-direct; the write failure is already handled by clearing Remote
					f.Remote = cache.RemoteInfo{}
				}
			}
		}
	}
	inserted, err := e.cache.Insert(f)
	if err != nil {
		if f.Remote.Registered {
			_ = e.pool.Unregister(id) //polarvet:allow errdrop unwinding a failed fill; the fetch error already propagates and a leaked ref is reclaimed by DropNodeRefs
		}
		return nil, err
	}
	if inserted != f && f.Remote.Registered {
		// Lost a racing fill; drop our duplicate registration reference.
		_ = e.pool.Unregister(id) //polarvet:allow errdrop dropping a duplicate ref after losing a racing fill; the winner's ref keeps the page alive
	}
	return inserted, nil
}

// readRemoteFresh reads the page from remote memory once its PIB bit is
// clear, asking the RW node to write back its newer local copy if needed.
func (e *Engine) readRemoteFresh(f *cache.Frame) error {
	for attempt := 0; attempt < 10; attempt++ {
		stale, err := e.pool.PIBStale(f.Remote.PIB)
		if err != nil {
			return err
		}
		if !stale {
			return e.pool.ReadPage(f.Remote.Data, f.Data)
		}
		if !e.cfg.ReadOnly {
			// We are the RW and do not hold the page locally: the stale
			// bit is a leftover (e.g. a racing registration by an RO that
			// has not populated data yet). Fall back to storage.
			return ErrStalePage
		}
		ok, err := e.requestRWFlush(f.ID)
		if err != nil || !ok {
			return ErrStalePage // RW does not hold it: storage is current
		}
	}
	return fmt.Errorf("%w: %s (PIB never cleared)", ErrStalePage, f.ID)
}

// requestRWFlush asks the RW node to write a page back to remote memory.
// ok=false means the RW has no local copy (storage is authoritative).
func (e *Engine) requestRWFlush(id types.PageID) (bool, error) {
	req := make([]byte, 8)
	binary.LittleEndian.PutUint32(req[0:], uint32(id.Space))
	binary.LittleEndian.PutUint32(req[4:], uint32(id.No))
	resp, err := e.ep.CallTimeout(e.cfg.RWNode, "eng.flushpage", req, flushPageTimeout)
	if err != nil {
		return false, err
	}
	return len(resp) == 1 && resp[0] == 1, nil
}

// refreshFrame re-reads an invalidated local copy (RO path). The
// invalidation count is read before the PIB probe and published after the
// read, so an invalidation that lands in between leaves the frame invalid
// for the next fetch instead of being cleared with the ones it followed.
func (e *Engine) refreshFrame(f *cache.Frame) error {
	f.Latch.Lock()
	defer f.Latch.Unlock()
	if !f.Invalid() {
		return nil // refreshed by a concurrent reader
	}
	seen := f.Invalidations()
	if !f.Remote.Registered && e.pool != nil {
		res, err := e.pool.Register(f.ID)
		if err == nil {
			f.Remote = cache.RemoteInfo{Registered: true, Data: res.Data, PL: res.PL, PIB: res.PIB}
		}
	}
	if f.Remote.Registered {
		if err := e.readRemoteFresh(f); err == nil {
			e.adoptRemote(f)
			f.SetCurrent(seen)
			return nil
		} else if !errors.Is(err, ErrStalePage) {
			return err
		}
	}
	if err := e.fillFromStorage(f); err != nil {
		return err
	}
	f.SetCurrent(seen)
	return nil
}

// adoptRemote stamps a frame whose image was just read from remote
// memory: the page LSN travels in bytes 0-8 of the image.
func (e *Engine) adoptRemote(f *cache.Frame) {
	e.met.remoteRead.Inc()
	f.NewestLSN = types.LSN(binary.LittleEndian.Uint64(f.Data[0:8]))
	f.ShippedLSN = f.NewestLSN
}

// fillFromStorage overwrites the frame with the newest PolarFS image of
// its page (zeroes if storage has never seen the page) and stamps the
// image's LSN into bytes 0-8.
func (e *Engine) fillFromStorage(f *cache.Frame) error {
	data, lsn, exists, err := e.pfs.GetPage(f.ID, polarfs.MaxLSN)
	if err != nil {
		return err
	}
	e.met.storageRead.Inc()
	if exists {
		copy(f.Data, data)
	} else {
		for i := range f.Data {
			f.Data[i] = 0
		}
	}
	binary.LittleEndian.PutUint64(f.Data[0:8], uint64(lsn))
	f.NewestLSN = lsn
	f.ShippedLSN = lsn
	return nil
}

// onEvict implements the eviction policy: a locally-modified frame may
// only leave the cache once its redo is acknowledged by the page chunks
// (Figure 7 step 6); dirty frames are written back to remote memory first.
func (e *Engine) onEvict(f *cache.Frame) {
	if !e.cfg.ReadOnly && f.NewestLSN > f.ShippedLSN {
		e.waitShipped(f.NewestLSN)
		f.ShippedLSN = f.NewestLSN
	}
	if f.Dirty() && !e.cfg.ReadOnly && f.Remote.Registered {
		if err := e.pool.WritePage(f.Remote.Data, f.Data, f.Remote.PIB); err == nil {
			f.ClearDirty()
		}
	}
	if f.Remote.Registered && e.pool != nil {
		_ = e.pool.Unregister(f.ID) //polarvet:allow errdrop best-effort deref on eviction; an unreachable home node means recovery reclaims the refs wholesale
	}
}

// waitShipped blocks until the shipper watermark covers lsn.
func (e *Engine) waitShipped(lsn types.LSN) {
	e.shippedMu.Lock()
	for e.shippedLSN < lsn {
		e.shippedCond.Wait()
	}
	e.shippedMu.Unlock()
}

func (e *Engine) setShipped(lsn types.LSN) {
	e.shippedMu.Lock()
	if lsn > e.shippedLSN {
		e.shippedLSN = lsn
	}
	e.shippedMu.Unlock()
	e.shippedCond.Broadcast()
}

// ---------------------------------------------------------------------------
// Global latches & SMO clock (btree.Store implementation, continued)

// PLLockX takes the page's global latch exclusively (RDMA CAS fast path,
// home negotiation slow path). A no-op without remote memory (single-node
// baselines have no cross-node readers).
func (e *Engine) PLLockX(f *cache.Frame) error {
	if e.pool == nil || !f.Remote.Registered {
		return nil
	}
	e.met.smoLatchX.Inc()
	return e.pool.PL().LockX(f.ID, f.Remote.PL)
}

// PLUnlockX releases an SMO's latch participation; the latch itself stays
// sticky on this node until another node asks for it (§3.2).
func (e *Engine) PLUnlockX(f *cache.Frame) {
	if e.pool == nil || !f.Remote.Registered {
		return
	}
	_ = e.pool.PL().UnlockX(f.ID, true) //polarvet:allow errdrop latch release to a possibly-dead home node; ReleaseNodeLatches force-clears our latches on recovery
}

// PLLockS takes the global latch shared (RO pessimistic traversals).
func (e *Engine) PLLockS(f *cache.Frame) error {
	if e.pool == nil || !f.Remote.Registered {
		return nil
	}
	e.met.smoLatchS.Inc()
	return e.pool.PL().LockS(f.ID, f.Remote.PL)
}

// PLUnlockS releases a shared global latch.
func (e *Engine) PLUnlockS(f *cache.Frame) {
	if e.pool == nil || !f.Remote.Registered {
		return
	}
	_ = e.pool.PL().UnlockS(f.ID) //polarvet:allow errdrop latch release to a possibly-dead home node; ReleaseNodeLatches force-clears our latches on recovery
}

// SMOStamp returns the value SMOs stamp onto modified pages. It is
// derived from the redo LSN, which is monotone across crashes — any SMO
// that runs after a reader snapshots SMOClock gets a strictly greater
// stamp. (The paper uses a dedicated SMO counter; an LSN-based clock is
// the same mechanism with crash-safety for free.)
func (e *Engine) SMOStamp() uint64 {
	return uint64(e.buf.CurrentLSN()) + 1
}

// SMOClock returns the optimistic traversal snapshot: the local LSN on
// the RW; on an RO node the newest published LSN it has seen, which the
// statement's read view brought along — no fabric access. An older clock
// only makes more stamps look concurrent, so a conflict can be false but
// never missed; fresh (the retry after a conflict) reads the RW's word
// again, so that the retry's clock postdates the SMO it ran into.
func (e *Engine) SMOClock(fresh bool) (uint64, error) {
	if !e.cfg.ReadOnly {
		return uint64(e.buf.CurrentLSN()), nil
	}
	if fresh {
		lsn, err := e.ctsCli.ReadLSN()
		if err != nil {
			return 0, err
		}
		e.observeSMOClock(lsn)
	}
	return e.smoClock.Load(), nil
}

// observeSMOClock advances the node's SMO clock to a published LSN it has
// just read. One RW's published LSN never decreases, so the maximum is
// the most recent observation; SwitchRW starts over.
func (e *Engine) observeSMOClock(lsn types.LSN) {
	for {
		cur := e.smoClock.Load()
		if uint64(lsn) <= cur || e.smoClock.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// ReadOnly reports whether this engine may modify pages.
func (e *Engine) ReadOnly() bool { return e.cfg.ReadOnly }

var _ btree.Store = (*Engine)(nil)

// ---------------------------------------------------------------------------
// Mini-transactions

// Mtr is the engine's mini-transaction: a group of page writes applied
// atomically through the redo log.
type Mtr struct {
	e        *Engine
	m        *plog.MTR
	frames   map[uint64]*cache.Frame
	deferred []*cache.Frame // X-PL releases pending until post-invalidation
}

// BeginMtr opens a mini-transaction (RW only).
func (e *Engine) BeginMtr() *Mtr {
	return &Mtr{e: e, m: plog.NewMTR(), frames: make(map[uint64]*cache.Frame)}
}

// LogWrite applies data at off within the (exclusively latched) frame and
// logs it. Bytes [0,8) are the engine-owned page LSN and must not be
// logged.
func (mt *Mtr) LogWrite(f *cache.Frame, off int, data []byte) {
	if off < 8 {
		panic(fmt.Sprintf("engine: logged write into reserved header of %s (off %d)", f.ID, off))
	}
	copy(f.Data[off:], data)
	mt.m.LogWrite(f.ID, uint16(off), data)
	f.MarkDirty()
	if _, ok := mt.frames[f.ID.Key()]; !ok {
		f.Pin()
		// The mtr-pin (taken under this frame's exclusive latch) keeps
		// handleFlushPage from shipping these bytes to an RO node before
		// Commit invalidates the MTR's other pages.
		f.MtrPin()
		mt.frames[f.ID.Key()] = f
	}
}

// DeferPLUnlockX schedules the frame's global X latch release for after
// this MTR's invalidations (see btree.Mtr). The frame is pinned until then.
func (mt *Mtr) DeferPLUnlockX(f *cache.Frame) {
	f.Pin()
	mt.deferred = append(mt.deferred, f)
}

var _ btree.Mtr = (*Mtr)(nil)

// Commit runs the §3.1.4 pipeline: invalidate every modified page's other
// copies, then append the MTR's redo to the log buffer, stamp the frames'
// page LSNs, and release the pins. Returns the MTR's end LSN (0 if empty).
//
//polarvet:fabric O(n) invalidation is one batched RPC, but releasing the SMO's deferred global latches is one one-sided CAS per latched frame
func (mt *Mtr) Commit() (types.LSN, error) {
	if mt.m.Empty() {
		mt.release()
		return 0, nil
	}
	if mt.e.pool != nil {
		// One batched page_invalidate round trip for the whole MTR: the
		// home fans the list out once per distinct holder instead of once
		// per (page, holder) pair.
		if err := mt.e.pool.InvalidateBatch(mt.m.Pages()); err != nil {
			// Invalidation must succeed for coherency; a failure means
			// the home is gone and the node must stop modifying.
			mt.release()
			return 0, fmt.Errorf("engine: page_invalidate: %w", err)
		}
	}
	end := mt.e.buf.Append(mt.m)
	mt.e.met.mtrCommit.Inc()
	mt.e.cts.PublishLSN(end)
	for _, f := range mt.frames {
		f.Latch.Lock()
		if end > f.NewestLSN {
			binary.LittleEndian.PutUint64(f.Data[0:8], uint64(end))
			f.NewestLSN = end
		}
		f.Latch.Unlock()
	}
	mt.release()
	mt.e.nudgeShipper()
	return end, nil
}

func (mt *Mtr) release() {
	mt.e.mtrMu.Lock()
	for _, f := range mt.frames {
		f.MtrUnpin()
	}
	mt.e.mtrMu.Unlock()
	mt.e.mtrCond.Broadcast()
	for _, f := range mt.frames {
		f.Unpin()
	}
	mt.frames = make(map[uint64]*cache.Frame)
	// Now that every modified page is invalidated (or the MTR was empty),
	// the SMO's global latches may be released (sticky: they stay on this
	// node until another node asks).
	for _, f := range mt.deferred {
		if mt.e.pool != nil && f.Remote.Registered {
			_ = mt.e.pool.PL().UnlockX(f.ID, true) //polarvet:allow errdrop latch release to a possibly-dead home node; ReleaseNodeLatches force-clears our latches on recovery
		}
		f.Unpin()
	}
	mt.deferred = nil
}

func (e *Engine) nudgeShipper() {
	select {
	case e.nudge <- struct{}{}:
	default:
	}
}
