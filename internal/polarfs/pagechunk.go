package polarfs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"polardb/internal/parallelraft"
	"polardb/internal/plog"
	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// MaxLSN requests the latest page version from GetPage.
const MaxLSN = ^types.LSN(0)

type pageVersion struct {
	lsn  types.LSN
	data []byte
}

// pageChunkSM is the replicated state machine of a page chunk: a partition
// of the database's pages, stored as materialized versions plus a redo
// hash of not-yet-materialized records (Figure 7 of the paper).
type pageChunkSM struct {
	mu          sync.RWMutex
	pages       map[uint64][]pageVersion // ascending lsn
	pending     map[uint64][]plog.Record // ascending lsn, deduped
	coverage    types.LSN                // all redo <= coverage for this chunk received
	maxVersions int
}

const (
	pcCmdAdd = iota + 1
	pcCmdMaterialize
)

func newPageChunkSM(maxVersions int) *pageChunkSM {
	return &pageChunkSM{
		pages:       make(map[uint64][]pageVersion),
		pending:     make(map[uint64][]plog.Record),
		maxVersions: maxVersions,
	}
}

func (sm *pageChunkSM) Apply(index uint64, cmd []byte) {
	rd := wire.NewReader(cmd)
	switch rd.U8() {
	case pcCmdAdd:
		cov := types.LSN(rd.U64())
		recs, err := plog.UnmarshalRecords(rd.Bytes32())
		if err != nil {
			return
		}
		sm.mu.Lock()
		for _, r := range recs {
			sm.insertPendingLocked(r)
		}
		if cov > sm.coverage {
			sm.coverage = cov
		}
		sm.mu.Unlock()
	case pcCmdMaterialize:
		upTo := types.LSN(rd.U64())
		sm.mu.Lock()
		sm.materializeLocked(upTo)
		sm.mu.Unlock()
	}
}

// insertPendingLocked adds a record to the redo hash, keeping per-page
// LSN order and dropping duplicates and records already materialized
// (idempotency for recovery-time redistribution).
func (sm *pageChunkSM) insertPendingLocked(r plog.Record) {
	k := r.Page.Key()
	if vs := sm.pages[k]; len(vs) > 0 && r.LSN <= vs[len(vs)-1].lsn {
		return // already folded into a materialized version
	}
	list := sm.pending[k]
	i := sort.Search(len(list), func(i int) bool { return list[i].LSN >= r.LSN })
	if i < len(list) && list[i].LSN == r.LSN {
		return // duplicate
	}
	list = append(list, plog.Record{})
	copy(list[i+1:], list[i:])
	list[i] = r
	sm.pending[k] = list
}

// materializeLocked folds pending records with LSN <= upTo into new page
// versions and garbage-collects old versions.
func (sm *pageChunkSM) materializeLocked(upTo types.LSN) {
	for k, list := range sm.pending {
		n := sort.Search(len(list), func(i int) bool { return list[i].LSN > upTo })
		if n == 0 {
			continue
		}
		vs := sm.pages[k]
		var base []byte
		if len(vs) > 0 {
			base = vs[len(vs)-1].data
		}
		page := make([]byte, types.PageSize)
		copy(page, base)
		var last types.LSN
		for _, r := range list[:n] {
			if err := r.ApplyToPage(page); err != nil {
				continue // corrupt record; skip deterministically
			}
			last = r.LSN
		}
		vs = append(vs, pageVersion{lsn: last, data: page})
		if len(vs) > sm.maxVersions {
			vs = vs[len(vs)-sm.maxVersions:]
		}
		sm.pages[k] = vs
		if n == len(list) {
			delete(sm.pending, k)
		} else {
			sm.pending[k] = list[n:]
		}
	}
}

// get materializes the page as of atLSN on demand (without mutating state):
// latest version with lsn <= atLSN plus pending records in (version, atLSN].
// exists reports whether the chunk has ever seen the page.
func (sm *pageChunkSM) get(id types.PageID, atLSN types.LSN) (data []byte, lsn types.LSN, exists bool, err error) {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	k := id.Key()
	vs := sm.pages[k]
	pend := sm.pending[k]
	if len(vs) == 0 && len(pend) == 0 {
		return nil, 0, false, nil
	}
	page := make([]byte, types.PageSize)
	var base types.LSN
	i := sort.Search(len(vs), func(i int) bool { return vs[i].lsn > atLSN })
	if i > 0 {
		copy(page, vs[i-1].data)
		base = vs[i-1].lsn
	} else if len(vs) > 0 {
		// All retained versions are newer than atLSN; if pending records
		// can't rebuild from zero, the requested version is gone.
		if len(pend) == 0 || pend[0].LSN > atLSN {
			return nil, 0, true, fmt.Errorf("%w: page %s at lsn %d", ErrPageTooOld, id, atLSN)
		}
	}
	for _, r := range pend {
		if r.LSN <= base {
			continue
		}
		if r.LSN > atLSN {
			break
		}
		if err := r.ApplyToPage(page); err != nil {
			return nil, 0, true, err
		}
		base = r.LSN
	}
	return page, base, true, nil
}

func (sm *pageChunkSM) coverageLSN() types.LSN {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return sm.coverage
}

func (sm *pageChunkSM) pendingCount() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	n := 0
	for _, l := range sm.pending {
		n += len(l)
	}
	return n
}

// pageChunk is one replica of a page-chunk partition on a storage node.
type pageChunk struct {
	part        int
	sm          *pageChunkSM
	replica     *parallelraft.Replica
	ep          *rdma.Endpoint
	readLatency time.Duration
	closeCh     chan struct{}
	wg          sync.WaitGroup

	metGets *stat.Counter // page get RPCs served by this replica
	metAdds *stat.Counter // redo add batches ingested by this replica
}

func newPageChunk(ep *rdma.Endpoint, cfg VolumeConfig, peers []rdma.NodeID, part int) *pageChunk {
	sm := newPageChunkSM(cfg.MaxVersionsPerPage)
	pc := &pageChunk{
		part:        part,
		sm:          sm,
		replica:     parallelraft.NewReplica(ep, raftConfig(cfg.Raft, cfg.PageGroup(part), peers), sm),
		ep:          ep,
		readLatency: cfg.ReadLatency,
		closeCh:     make(chan struct{}),
		metGets:     ep.Metrics().Counter("pfs.chunk.gets"),
		metAdds:     ep.Metrics().Counter("pfs.chunk.add_batches"),
	}
	prefix := "pfs." + cfg.PageGroup(part) + "."
	ep.RegisterHandler(prefix+"add", pc.handleAdd)
	ep.RegisterHandler(prefix+"get", pc.handleGet)
	ep.RegisterHandler(prefix+"coverage", pc.handleCoverage)
	ep.RegisterHandler(prefix+"materialize", pc.handleMaterialize)
	pc.wg.Add(1)
	go pc.materializer(cfg.MaterializeInterval)
	return pc
}

func (pc *pageChunk) close() {
	close(pc.closeCh)
	// Close the replica before waiting: a materializer stuck in Propose
	// (e.g. on a killed leader that can no longer reach a quorum) only
	// unblocks when the replica shuts down.
	pc.replica.Close()
	pc.wg.Wait()
}

// materializer periodically folds the redo hash into page versions. Only
// the current leader proposes; replicas apply through raft.
func (pc *pageChunk) materializer(interval time.Duration) {
	defer pc.wg.Done()
	for {
		select {
		case <-pc.closeCh:
			return
		case <-time.After(interval):
		}
		if pc.replica.Role() != parallelraft.Leader {
			continue
		}
		if pc.sm.pendingCount() == 0 {
			continue
		}
		upTo := pc.sm.coverageLSN()
		w := wire.NewWriter(16)
		w.U8(pcCmdMaterialize)
		w.U64(uint64(upTo))
		// Best effort; leadership may be lost mid-propose.
		_, _ = pc.replica.Propose(w.Bytes(), parallelraft.FullRange) //polarvet:allow errdrop best-effort materialize nudge; leadership loss mid-propose just means the next tick retries
	}
}

// handleAdd ingests a batch of redo records (step 3-6 of Figure 7): persist
// via raft, insert into the redo hash, then acknowledge. Propose returns
// once this leader has applied the batch, so a MaxLSN read that follows
// the ack sees it; after the ack the RW node may evict the covered dirty
// pages anywhere in the hierarchy.
func (pc *pageChunk) handleAdd(from rdma.NodeID, req []byte) ([]byte, error) {
	pc.metAdds.Inc()
	rd := wire.NewReader(req)
	cov := rd.U64()
	recsBuf := rd.Bytes32()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	recs, err := plog.UnmarshalRecords(recsBuf)
	if err != nil {
		return nil, err
	}
	// Ranges: the pages touched, so independent batches commit out of order.
	ranges := make([]parallelraft.Range, 0, len(recs))
	for _, r := range recs {
		k := r.Page.Key()
		ranges = append(ranges, parallelraft.Range{Start: k, End: k + 1})
	}
	w := wire.NewWriter(len(req) + 16)
	w.U8(pcCmdAdd)
	w.U64(cov)
	w.Bytes32(recsBuf)
	if _, err := pc.replica.Propose(w.Bytes(), ranges); err != nil {
		return nil, err
	}
	return nil, nil
}

// handleGet serves GetPage@LSN from the chunk leader. The read pays the
// storage media latency on top of the network round trip.
func (pc *pageChunk) handleGet(from rdma.NodeID, req []byte) ([]byte, error) {
	pc.metGets.Inc()
	if pc.replica.Role() != parallelraft.Leader {
		return nil, ErrNotLeader
	}
	pc.ep.Fabric().Delay(pc.readLatency, types.PageSize)
	rd := wire.NewReader(req)
	id := types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	at := types.LSN(rd.U64())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if at != MaxLSN {
		// An explicit-LSN read beyond the chunk's redo coverage could miss
		// records still in flight; the caller must retry after shipping.
		if cov := pc.sm.coverageLSN(); at > cov {
			return nil, fmt.Errorf("%w: want %d, coverage %d", ErrStaleLSN, at, cov)
		}
	}
	data, lsn, exists, err := pc.sm.get(id, at)
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter(types.PageSize + 16)
	w.Bool(exists)
	w.U64(uint64(lsn))
	w.Bytes32(data)
	return w.Bytes(), nil
}

func (pc *pageChunk) handleCoverage(from rdma.NodeID, req []byte) ([]byte, error) {
	if pc.replica.Role() != parallelraft.Leader {
		return nil, ErrNotLeader
	}
	w := wire.NewWriter(8)
	w.U64(uint64(pc.sm.coverageLSN()))
	return w.Bytes(), nil
}

// handleMaterialize forces an immediate fold up to the given LSN (used by
// recovery and tests; the background materializer does this continuously).
func (pc *pageChunk) handleMaterialize(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	upTo := rd.U64()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	w := wire.NewWriter(16)
	w.U8(pcCmdMaterialize)
	w.U64(upTo)
	if _, err := pc.replica.Propose(w.Bytes(), parallelraft.FullRange); err != nil {
		return nil, err
	}
	return nil, nil
}
