package polarfs

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"polardb/internal/parallelraft"
	"polardb/internal/plog"
	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// MaxLSN requests the latest page image from GetPage.
const MaxLSN = ^types.LSN(0)

// pageImage is a page chunk's one copy of a page: data with every record
// of the page up to lsn applied.
type pageImage struct {
	lsn  types.LSN
	data []byte
}

// pageChunkSM is the replicated state machine of a page chunk: a partition
// of the database's pages, one image each. Apply writes each redo batch
// into the images when raft applies it, so the redo hash of Figure 7 is
// folded at ingest.
//
// Precondition: apart from duplicates, a page's records reach Apply in LSN
// order. The shipper sends one batch at a time and waits for its ack,
// which follows the leader's apply; ParallelRedo redistributes in LSN
// order from the checkpoint; batches that touch the same page conflict, so
// every replica applies them in index order; and a fenced RW's in-flight
// batch either duplicates the redistribution or precedes it. A record at
// or below its page's image LSN is such a duplicate and is skipped.
type pageChunkSM struct {
	mu       sync.RWMutex
	pages    map[uint64]*pageImage
	coverage types.LSN // all redo <= coverage for this chunk received
}

// Apply ingests an add command: the coverage LSN, then the marshalled
// records.
func (sm *pageChunkSM) Apply(index uint64, cmd []byte) {
	rd := wire.NewReader(cmd)
	cov := types.LSN(rd.U64())
	recs, err := plog.UnmarshalRecords(rd.Bytes32())
	if err != nil {
		return // corrupt command: chunk state unchanged
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for _, r := range recs {
		k := r.Page.Key()
		img := sm.pages[k]
		if img == nil {
			img = &pageImage{data: make([]byte, types.PageSize)}
		}
		if r.LSN <= img.lsn || r.ApplyToPage(img.data) != nil {
			continue // a duplicate, or a corrupt record skipped deterministically
		}
		img.lsn = r.LSN
		sm.pages[k] = img
	}
	if cov > sm.coverage {
		sm.coverage = cov
	}
}

// get returns a copy of the page's image if its LSN is at or below at.
// exists reports whether the chunk has ever seen the page.
func (sm *pageChunkSM) get(id types.PageID, at types.LSN) (data []byte, lsn types.LSN, exists bool, err error) {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	img := sm.pages[id.Key()]
	if img == nil {
		return nil, 0, false, nil
	}
	if img.lsn > at {
		return nil, 0, true, fmt.Errorf("%w: page %s at lsn %d, image at %d", ErrPageTooOld, id, at, img.lsn)
	}
	return bytes.Clone(img.data), img.lsn, true, nil
}

func (sm *pageChunkSM) coverageLSN() types.LSN {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return sm.coverage
}

// pageChunk is one replica of a page-chunk partition on a storage node.
type pageChunk struct {
	sm          *pageChunkSM
	replica     *parallelraft.Replica
	ep          *rdma.Endpoint
	readLatency time.Duration

	metGets *stat.Counter // page get RPCs served by this replica
	metAdds *stat.Counter // redo add batches received by this replica
}

func newPageChunk(ep *rdma.Endpoint, cfg VolumeConfig, peers []rdma.NodeID, part int) *pageChunk {
	sm := &pageChunkSM{pages: make(map[uint64]*pageImage)}
	pc := &pageChunk{
		sm:          sm,
		replica:     parallelraft.NewReplica(ep, raftConfig(cfg.Raft, cfg.PageGroup(part), peers), sm),
		ep:          ep,
		readLatency: cfg.ReadLatency,
		metGets:     ep.Metrics().Counter("pfs.chunk.gets"),
		metAdds:     ep.Metrics().Counter("pfs.chunk.add_batches"),
	}
	prefix := "pfs." + cfg.PageGroup(part) + "."
	ep.RegisterHandler(prefix+"add", pc.handleAdd)
	ep.RegisterHandler(prefix+"get", pc.handleGet)
	ep.RegisterHandler(prefix+"coverage", pc.handleCoverage)
	return pc
}

func (pc *pageChunk) close() { pc.replica.Close() }

// handleAdd ingests a batch of redo records (step 3-6 of Figure 7):
// persist via raft, apply to the page images, then acknowledge. Propose
// returns once this leader has applied the batch, so a MaxLSN read that
// follows the ack sees it; after the ack the RW node may evict the covered
// dirty pages anywhere in the hierarchy.
func (pc *pageChunk) handleAdd(from rdma.NodeID, req []byte) ([]byte, error) {
	pc.metAdds.Inc()
	rd := wire.NewReader(req)
	rd.U64() // coverage, for Apply
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
	// The request is the command: nobody writes to it after the call.
	if _, err := pc.replica.Propose(req, ranges); err != nil {
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
