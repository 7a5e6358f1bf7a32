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
//	→ append the MTR's redo to the log buffer, stamp the pages' LSNs,
//	  and only then release their latches (so redo order is write order)
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

// shipInterval bounds how long redo nobody waits for (a backfill, an
// open transaction's statements) stays in the log buffer: everything
// that waits nudges the shipper instead. A var so tests can park it.
var shipInterval = 5 * time.Millisecond

const (
	// redoFillRecords is the log-buffer fill at which Mtr.Commit ships
	// without waiting for a commit: a bulk transaction's redo leaves in
	// slices of about this many records, not as one append at its commit.
	// At twice this fill the MTR also waits for the shipper to take them.
	redoFillRecords = 256
	// flushPageTimeout bounds an RO node's eng.flushpage request to the
	// RW (asking it for its image of a page whose pool copy is stale).
	flushPageTimeout = 2 * time.Second
)

func (c *Config) applyDefaults() {
	if c.LocalCachePages == 0 {
		c.LocalCachePages = 1024
	}
	if c.LockWait == 0 {
		c.LockWait = 2 * time.Second
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

	// activeMu guards the RW's transaction table. slotOwner holds the
	// transactions that own an undo slot: every view lists them, and the
	// CTS region's view block publishes them (every change to slotOwner is
	// followed by publishViewLocked under the same hold). views holds every
	// open local snapshot's timestamp and roLeases the ones RO nodes hold
	// for the views they read one-sided: together, the purge horizon.
	activeMu  sync.Mutex
	slotOwner map[int]types.TrxID
	views     map[*Txn]types.Timestamp
	roLeases  []roLease // in expiry order

	// warmMu guards the admission of the warmer's workers against Close
	// and against the ones still running (see warm).
	warmMu  sync.Mutex
	warmers int

	treesMu sync.Mutex
	trees   map[types.SpaceID]*btree.Tree

	tablesMu sync.Mutex
	tables   map[string]*Table

	nudge chan struct{} // wakes the shipper; its watermarks live in buf

	backfillCh chan backfillItem

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
	flushServed *stat.Counter // eng.flushpage requests answered with the page (RW)
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
	e.ctsReg = deps.EP.RegisterRegion(txn.RegionSize(txn.DefaultCTSSlots))
	e.cts = txn.NewService(e.ctsReg, txn.DefaultCTSSlots)
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
	e.ctsCli = txn.NewClient(deps.EP, cfg.RWNode, cfg.CTSRegionID, txn.DefaultCTSSlots)
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
		trees:      make(map[types.SpaceID]*btree.Tree),
		tables:     make(map[string]*Table),
		slotOwner:  make(map[int]types.TrxID),
		views:      make(map[*Txn]types.Timestamp),
		nudge:      make(chan struct{}, 1),
		leaseCh:    make(chan leaseReq, 1),
		backfillCh: make(chan backfillItem, 4096),
		closeCh:    make(chan struct{}),
		met:        newEngineMetrics(deps.EP.Metrics()),
	}
	e.cache = cache.New(cfg.LocalCachePages, e.onEvict)
	if e.pool != nil && cfg.ReadOnly {
		// An RO's copy of a page the home invalidates or purges is read
		// again on next use; a fill under way reads once more (readFrame).
		e.pool.OnInvalidate(e.cache.Invalidate)
		e.pool.OnSlabFailure(func(pages []types.PageID) {
			for _, id := range pages {
				e.cache.Invalidate(id)
			}
		})
	} else if e.pool != nil {
		// The RW's copy is the newest there is: nothing the home sends can
		// outdate it, and a purge leaves it storage-direct. A promoted RO's
		// callbacks go with its engine.
		e.pool.OnInvalidate(nil)
		e.pool.OnSlabFailure(nil)
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
	e.warmMu.Lock() // warm admits its workers under it
	was := e.closed.Swap(true)
	e.warmMu.Unlock()
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

// ResizeLocalCache changes the local cache tier's capacity live.
func (e *Engine) ResizeLocalCache(pages int) error { return e.cache.Resize(pages) }

// ---------------------------------------------------------------------------
// Page access (btree.Store implementation)

// Fetch returns a pinned frame with the page's current contents, filling
// the local cache from remote memory or storage on a miss.
//
//polarvet:fabric O(1) one-sided on a registered page (PIB probe, then a page read, or one eng.flushpage whose reply is the page); one page_register round trip first on a page the node does not hold
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
// asks this node for the page like for any dirty page. A cached page
// is returned as it is. RW only.
//
//polarvet:fabric O(1) at most the page_register round trip; no page image crosses the fabric
func (e *Engine) FetchNew(id types.PageID) (*cache.Frame, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	return e.fetch(id, true)
}

// fetch returns the page's frame, pinned and read: a fill publishes the
// frame it read, and a copy an invalidation has outdated is read again.
// Whoever asks for a page being filled or evicted waits in the cache.
func (e *Engine) fetch(id types.PageID, fresh bool) (*cache.Frame, error) {
	f, fill := e.cache.GetOrFill(id)
	if !f.Invalid() {
		e.met.localHit.Inc()
		return f, nil
	}
	f.Latch.Lock()
	err := e.readFrame(f, fresh)
	f.Latch.Unlock()
	if fill && err == nil {
		// Publishing evicts for room; it holds no latch meanwhile.
		err = e.cache.Publish(f)
	}
	switch {
	case err == nil:
		return f, nil
	case fill:
		if f.Remote.Registered {
			_ = e.pool.Unregister(id) //polarvet:allow errdrop unwinding a failed fill; the fetch error already propagates and a leaked ref is reclaimed when the node is kicked
		}
		e.cache.Abandon(f)
	default:
		f.Unpin()
	}
	return nil, err
}

// Unpin releases a fetched frame.
func (e *Engine) Unpin(f *cache.Frame) { f.Unpin() }

// readFrame reads an invalid frame through the memory hierarchy: a frame
// being filled, which was never current, or an outdated copy. A fresh page
// is only registered and left zeroed. The caller holds the X latch. The
// invalidation count is read before the read and published after it, so an
// invalidation that lands in between leaves the frame invalid for the next
// fetch instead of being cleared with the ones it followed. If the pool
// purges the page's entry meanwhile, the page is read once more: the read
// may have hit a slot the home has since given to another page. A copy
// that loses its entry again is left to the next fetch (an RO's reads
// invalid, the RW keeps its copy).
func (e *Engine) readFrame(f *cache.Frame, fresh bool) error {
	if !f.Invalid() {
		return nil // refreshed by a concurrent reader
	}
	for reads := 0; reads < 2; reads++ {
		seen := f.Invalidations()
		// The registration the frame's fill took may name an image newer
		// than storage's, so it is probed; a new one is probed if the slot
		// existed, or on an RO, which asks about a slot it allocated too:
		// the RW may hold the page outside the pool, with redo storage has
		// not seen yet.
		res, held := e.lookup(f.ID)
		probe, allocated := held && !fresh, false
		if !held && e.pool != nil {
			var err error
			switch res, err = e.pool.Register(f.ID); {
			case err == nil:
				f.Remote.Registered, held = true, true
				probe, allocated = !fresh && (res.Exists || e.cfg.ReadOnly), !res.Exists
			case errors.Is(err, rmem.ErrOutOfMemory) || errors.Is(err, rmem.ErrMetaFull):
				// Pool full: operate storage-direct for this page.
			default:
				return err
			}
		}
		// Populate the remote copy from storage only when we are the RW (the
		// sole writer), or an RO that allocated the remote page while the RW
		// holds no copy: an RO overwriting a page the RW may write could race
		// the RW's invalidate/write-back and clear a PIB bit the RW just set.
		populate, fromRemote := !e.cfg.ReadOnly, false
		if probe {
			switch err := e.readRemoteFresh(f, res); {
			case err == nil:
				fromRemote = true
			case errors.Is(err, errNoRWCopy):
				populate = populate || allocated
			case !errors.Is(err, errReadStorage):
				return err
			}
		}
		switch {
		case fresh:
			e.met.fresh.Inc()
		case fromRemote: // the page LSN travels in bytes 0-8 of the image
			e.met.remoteRead.Inc()
			f.NewestLSN = types.LSN(binary.LittleEndian.Uint64(f.Data[0:8]))
		default:
			if err := e.fillFromStorage(f); err != nil {
				return err
			}
			if held && populate && e.pool.WriteBack(f.ID, f.Data) != nil {
				_ = e.pool.Unregister(f.ID) //polarvet:allow errdrop demoting the page to storage-direct; the write failure is already handled by giving the registration back
				f.Remote.Registered, held = false, false
			}
		}
		f.SetCurrent(seen)
		if _, still := e.lookup(f.ID); !held || still {
			break
		}
	}
	return nil
}

// lookup returns the addresses of the registration the page's frame took,
// while the pool holds it.
func (e *Engine) lookup(id types.PageID) (rmem.RegisterResult, bool) {
	if e.pool == nil {
		return rmem.RegisterResult{}, false
	}
	return e.pool.Lookup(id)
}

// readRemoteFresh reads the page from remote memory at res: with one
// one-sided read if the pool's copy is fresh, or, on an RO whose pool copy
// is stale, from the RW's eng.flushpage reply, which is the RW's image of
// the page. errReadStorage means storage is current; errNoRWCopy says so
// too, and that the RW holds no copy of the page.
func (e *Engine) readRemoteFresh(f *cache.Frame, res rmem.RegisterResult) error {
	stale, err := e.pool.PIBStale(res.PIB)
	if err != nil {
		return err
	}
	if !stale {
		if err := e.pool.ReadPage(res.Data, f.Data); err != nil {
			// Most likely a purge freed the slab under the read. The RW
			// holds no copy, so storage is current; an RO's proxy asks
			// again, and the next fill registers afresh.
			if !e.cfg.ReadOnly {
				return errReadStorage
			}
			return fmt.Errorf("%w: %v", ErrStalePage, err)
		}
		return nil
	}
	if !e.cfg.ReadOnly {
		// We are the RW and do not hold the page locally: the stale
		// bit is a leftover (e.g. a racing registration by an RO that
		// has not populated data yet). Fall back to storage.
		return errReadStorage
	}
	req := make([]byte, 8)
	binary.LittleEndian.PutUint32(req[0:], uint32(f.ID.Space))
	binary.LittleEndian.PutUint32(req[4:], uint32(f.ID.No))
	img, err := e.ep.CallTimeout(e.cfg.RWNode, "eng.flushpage", req, flushPageTimeout)
	switch {
	case err != nil:
		// The RW's answer is lost, not "storage is current": its copy
		// may hold redo storage has not seen. The proxy asks again.
		return fmt.Errorf("%w: %s: %v", ErrStalePage, f.ID, err)
	case len(img) == 0:
		return errNoRWCopy
	case len(img) != types.PageSize:
		return fmt.Errorf("%w: %s: eng.flushpage replied %d bytes", ErrStalePage, f.ID, len(img))
	}
	copy(f.Data, img)
	return nil
}

var (
	errReadStorage = fmt.Errorf("%w: storage is current", ErrStalePage)
	errNoRWCopy    = fmt.Errorf("%w: the RW holds no copy", errReadStorage)
)

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
	return nil
}

// onEvict implements the eviction policy: a locally-modified frame may
// only leave the cache once its redo is acknowledged by the page chunks
// (Figure 7 step 6); dirty frames are written back to remote memory first.
func (e *Engine) onEvict(f *cache.Frame) {
	shipped := true
	if !e.cfg.ReadOnly {
		// Returns at once if the redo has shipped. If the engine stopped
		// first, the page must not reach the pool ahead of its redo: it
		// leaves without a write-back.
		shipped = e.awaitShipper(plog.Shipped, f.NewestLSN) == nil
	}
	if shipped && f.Dirty() && !e.cfg.ReadOnly {
		e.writeBack(f)
	}
	if f.Remote.Registered {
		_ = e.pool.Unregister(f.ID) //polarvet:allow errdrop best-effort deref on eviction; an unreachable home node means recovery reclaims the refs wholesale
	}
}

// writeBack writes the frame's image to its page's pool slot, through the
// registration the frame's fill took, and marks it clean. A page the pool
// holds no entry for (never registered, or purged since) is storage-direct
// and stays as it is.
func (e *Engine) writeBack(f *cache.Frame) {
	if e.pool != nil && e.pool.WriteBack(f.ID, f.Data) == nil {
		f.ClearDirty()
	}
}

// awaitShipper blocks until the log buffer's watermark w reaches lsn,
// nudging the shipper if it has not. It fails if the shipper exits first
// (the engine closed, or its node died).
func (e *Engine) awaitShipper(w plog.Watermark, lsn types.LSN) error {
	if e.buf.Mark(w) < lsn {
		e.nudgeShipper()
	}
	if !e.buf.Wait(w, lsn) {
		return fmt.Errorf("%w: the shipper stopped short of redo %d", ErrClosed, lsn)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Global latches & SMO clock (btree.Store implementation, continued)

// PLLockX takes the page's global latch exclusively (RDMA CAS fast path,
// home negotiation slow path). A no-op without remote memory (single-node
// baselines have no cross-node readers), and for a storage-direct page:
// one whose frame holds no registration, because its fill took none or
// the pool has purged it since (rmem.ErrNotRegistered).
func (e *Engine) PLLockX(f *cache.Frame) error {
	res, ok := e.lookup(f.ID)
	if !ok {
		return nil
	}
	e.met.smoLatchX.Inc()
	return storageDirect(e.pool.PL().LockX(f.ID, res.PL))
}

// PLUnlockX releases an SMO's latch participation; the latch itself stays
// sticky on this node until another node asks for it (§3.2). A page whose
// latch was not taken is a no-op (rmem.ErrNotRegistered).
func (e *Engine) PLUnlockX(f *cache.Frame) {
	if e.pool != nil {
		_ = e.pool.PL().UnlockX(f.ID, true) //polarvet:allow errdrop latch release to a possibly-dead home node; the next RW's takeover force-clears our latches
	}
}

// PLLockS takes the global latch shared (RO pessimistic traversals).
func (e *Engine) PLLockS(f *cache.Frame) error {
	res, ok := e.lookup(f.ID)
	if !ok {
		return nil
	}
	e.met.smoLatchS.Inc()
	return storageDirect(e.pool.PL().LockS(f.ID, res.PL))
}

// storageDirect reads a latch on a page the pool holds no registration
// for as no latch: the page is storage-direct, like a frame that never
// registered.
func storageDirect(err error) error {
	if errors.Is(err, rmem.ErrNotRegistered) {
		return nil
	}
	return err
}

// PLUnlockS releases a shared global latch; like PLUnlockX, a no-op for a
// page whose latch was not taken.
func (e *Engine) PLUnlockS(f *cache.Frame) {
	if e.pool != nil {
		_ = e.pool.PL().UnlockS(f.ID) //polarvet:allow errdrop latch release to a possibly-dead home node; the next RW's takeover force-clears our latches
	}
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
// atomically through the redo log. Like InnoDB's mtr memo, it holds the X
// latch of every frame it wrote (or latched with lockX) until Commit has
// invalidated the frame, appended its redo and stamped its LSN: two MTRs
// that write one page are logged, and replayed, in the order they wrote
// it, and no reader sees a page ahead of its MTR's invalidations.
type Mtr struct {
	e        *Engine
	m        *plog.MTR
	frames   map[uint64]*cache.Frame // X-latched and pinned until Commit
	deferred []*cache.Frame          // X-PL releases pending until post-invalidation
}

// BeginMtr opens a mini-transaction (RW only).
func (e *Engine) BeginMtr() *Mtr {
	return &Mtr{e: e, m: plog.NewMTR(), frames: make(map[uint64]*cache.Frame)}
}

// LogWrite applies data at off within the frame and logs it. The caller
// holds the frame's X latch; with the MTR's first write of the frame the
// latch passes to the MTR. Bytes [0,8) are the engine-owned page LSN and
// must not be logged.
func (mt *Mtr) LogWrite(f *cache.Frame, off int, data []byte) {
	if off < 8 {
		panic(fmt.Sprintf("engine: logged write into reserved header of %s (off %d)", f.ID, off))
	}
	copy(f.Data[off:], data)
	mt.m.LogWrite(f.ID, uint16(off), data)
	f.MarkDirty()
	if !mt.Holds(f) {
		f.Pin()
		mt.frames[f.ID.Key()] = f
	}
}

// Holds reports whether the MTR holds the frame's X latch.
func (mt *Mtr) Holds(f *cache.Frame) bool { return mt.frames[f.ID.Key()] == f }

// Holding reports whether the MTR holds any latch.
func (mt *Mtr) Holding() bool { return len(mt.frames) > 0 }

// lockX X-latches f for the MTR, which holds it from now until it commits.
func (mt *Mtr) lockX(f *cache.Frame) {
	if !mt.Holds(f) {
		f.Latch.Lock()
		f.Pin()
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
// page LSNs, and release their latches and pins. Returns the MTR's end LSN
// (0 if empty). The redo ships when someone waits for it (see shipper). An
// MTR that leaves redoFillRecords or more in the buffer nudges the
// shipper; one that leaves twice that waits until the shipper has taken
// them (not until they are durable). The buffer so never holds more than
// two fills plus one MTR, and a writer blocks only while the shipper is
// more than a fill behind it.
//
//polarvet:fabric O(n) invalidation is one batched RPC, but releasing the SMO's deferred global latches is one one-sided CAS per latched frame
func (mt *Mtr) Commit() (types.LSN, error) {
	if mt.m.Empty() {
		mt.release()
		return 0, nil
	}
	pages := mt.m.Pages()
	if mt.e.pool != nil {
		// One batched page_invalidate round trip for the whole MTR: the
		// home fans the list out once per distinct holder instead of once
		// per (page, holder) pair.
		if err := mt.e.pool.InvalidateBatch(pages); err != nil {
			// Invalidation must succeed for coherency; a failure means
			// the home is gone and the node must stop modifying.
			mt.release()
			return 0, fmt.Errorf("engine: page_invalidate: %w", err)
		}
	}
	end := mt.e.buf.Append(mt.m)
	mt.e.met.mtrCommit.Inc()
	mt.e.cts.PublishLSN(end)
	for _, id := range pages {
		f := mt.frames[id.Key()]
		binary.LittleEndian.PutUint64(f.Data[0:8], uint64(end))
		f.NewestLSN = end
	}
	mt.release()
	if n := mt.e.buf.Pending(); n >= 2*redoFillRecords {
		// A shipper that exited means the node died or closed; the
		// transaction's commit wait reports that.
		_ = mt.e.awaitShipper(plog.Drained, end)
	} else if n >= redoFillRecords {
		mt.e.nudgeShipper()
	}
	return end, nil
}

func (mt *Mtr) release() {
	for _, f := range mt.frames {
		f.Latch.Unlock()
		f.Unpin()
	}
	mt.frames = make(map[uint64]*cache.Frame)
	// Now that every modified page is invalidated (or the MTR was empty),
	// the SMO's global latches may be released (sticky: they stay on this
	// node until another node asks).
	for _, f := range mt.deferred {
		mt.e.PLUnlockX(f)
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
