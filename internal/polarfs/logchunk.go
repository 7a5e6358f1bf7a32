package polarfs

import (
	"sync"

	"polardb/internal/parallelraft"
	"polardb/internal/plog"
	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// logChunkSM is the replicated state machine of a log chunk: the durable
// redo log, ordered by LSN. All appends conflict (FullRange), so raft
// applies them strictly in order on every replica.
type logChunkSM struct {
	mu      sync.RWMutex
	records []plog.Record // ascending LSN
	tail    types.LSN     // highest durable LSN
	head    types.LSN     // records below this have been truncated
}

const (
	logCmdAppend = iota + 1
	logCmdTruncate
)

func (sm *logChunkSM) Apply(index uint64, cmd []byte) {
	rd := wire.NewReader(cmd)
	switch rd.U8() {
	case logCmdAppend:
		recs, err := plog.UnmarshalRecords(rd.Bytes32())
		if err != nil {
			return // corrupt command: logged state unchanged
		}
		sm.mu.Lock()
		for _, r := range recs {
			// Idempotent: skip anything at or below the current tail
			// (client retries after leader changes may replay a batch).
			if r.LSN <= sm.tail {
				continue
			}
			sm.records = append(sm.records, r)
			sm.tail = r.LSN
		}
		sm.mu.Unlock()
	case logCmdTruncate:
		upTo := types.LSN(rd.U64())
		sm.mu.Lock()
		i := 0
		for i < len(sm.records) && sm.records[i].LSN <= upTo {
			i++
		}
		sm.records = sm.records[i:]
		if upTo > sm.head {
			sm.head = upTo
		}
		sm.mu.Unlock()
	}
}

// readFrom returns up to max records with LSN in (after, tail].
func (sm *logChunkSM) readFrom(after types.LSN, max int) []plog.Record {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	out := make([]plog.Record, 0, 64)
	for _, r := range sm.records {
		if r.LSN > after {
			out = append(out, r)
			if max > 0 && len(out) >= max {
				break
			}
		}
	}
	return out
}

func (sm *logChunkSM) tailLSN() types.LSN {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return sm.tail
}

// logChunk is one replica of the volume's log chunk on a storage node.
type logChunk struct {
	sm      *logChunkSM
	replica *parallelraft.Replica
}

func newLogChunk(ep *rdma.Endpoint, cfg VolumeConfig, peers []rdma.NodeID) *logChunk {
	sm := &logChunkSM{}
	lc := &logChunk{
		sm:      sm,
		replica: parallelraft.NewReplica(ep, raftConfig(cfg.Raft, logGroup, peers), sm),
	}
	prefix := "pfs." + logGroup + "."
	ep.RegisterHandler(prefix+"append", lc.handleAppend)
	ep.RegisterHandler(prefix+"read", lc.handleRead)
	ep.RegisterHandler(prefix+"tail", lc.handleTail)
	ep.RegisterHandler(prefix+"truncate", lc.handleTruncate)
	return lc
}

func (lc *logChunk) close() { lc.replica.Close() }

// handleAppend durably appends a batch of redo records (raft-committed
// across the replica set) and returns the new tail LSN.
func (lc *logChunk) handleAppend(from rdma.NodeID, req []byte) ([]byte, error) {
	w := wire.NewWriter(len(req) + 8)
	w.U8(logCmdAppend)
	w.Bytes32(req)
	if _, err := lc.replica.Propose(w.Bytes(), parallelraft.FullRange); err != nil {
		return nil, err
	}
	resp := wire.NewWriter(8)
	resp.U64(uint64(lc.sm.tailLSN()))
	return resp.Bytes(), nil
}

// handleRead serves records with LSN in (after, tail]; max bounds the batch.
func (lc *logChunk) handleRead(from rdma.NodeID, req []byte) ([]byte, error) {
	if lc.replica.Role() != parallelraft.Leader {
		return nil, ErrNotLeader
	}
	rd := wire.NewReader(req)
	after := types.LSN(rd.U64())
	max := int(rd.U32())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	recs := lc.sm.readFrom(after, max)
	return plog.MarshalRecords(recs), nil
}

func (lc *logChunk) handleTail(from rdma.NodeID, req []byte) ([]byte, error) {
	if lc.replica.Role() != parallelraft.Leader {
		return nil, ErrNotLeader
	}
	w := wire.NewWriter(8)
	w.U64(uint64(lc.sm.tailLSN()))
	return w.Bytes(), nil
}

func (lc *logChunk) handleTruncate(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	upTo := rd.U64()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	w := wire.NewWriter(16)
	w.U8(logCmdTruncate)
	w.U64(upTo)
	if _, err := lc.replica.Propose(w.Bytes(), parallelraft.FullRange); err != nil {
		return nil, err
	}
	return nil, nil
}
