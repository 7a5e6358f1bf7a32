package polarfs

import (
	"fmt"
	"slices"
	"sync"

	"polardb/internal/parallelraft"
	"polardb/internal/plog"
	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// logChunkSM is the replicated state machine of a log chunk: the durable
// redo log, ordered by LSN. All appends conflict (FullRange), so raft
// applies them strictly in order on every replica. The log keeps each
// append as the encoded batch it arrived in, aliasing the raft command,
// and decodes it again only when it is read.
type logChunkSM struct {
	mu      sync.RWMutex
	batches []logBatch // ascending LSN
	tail    types.LSN  // highest durable LSN
	head    types.LSN  // records below this have been truncated
}

// logBatch is one append, kept encoded. Of its records the log holds
// those above after that also rise above every record before them in
// the batch: the same records a walk that skips anything at or below
// the running tail would have kept.
type logBatch struct {
	after types.LSN // the log's tail when the batch came, raised by truncation
	last  types.LSN // the batch's highest record
	recs  []byte    // plog.MarshalRecords layout
}

const (
	logCmdAppend = iota + 1
	logCmdTruncate
)

func (sm *logChunkSM) Apply(index uint64, cmd []byte) {
	rd := wire.NewReader(cmd)
	switch rd.U8() {
	case logCmdAppend:
		buf := rd.View32()
		recs, err := plog.ReadRecords(buf)
		if err != nil {
			return // corrupt command: logged state unchanged
		}
		sm.mu.Lock()
		// Idempotent: a record at or below the tail is not the log's
		// (client retries after leader changes may replay a batch).
		b := logBatch{after: sm.tail, recs: buf}
		var r plog.Record
		for recs.Next(&r) {
			sm.tail = max(sm.tail, r.LSN)
		}
		if sm.tail > b.after {
			b.last = sm.tail
			sm.batches = append(sm.batches, b)
		}
		sm.mu.Unlock()
	case logCmdTruncate:
		upTo := types.LSN(rd.U64())
		sm.mu.Lock()
		i := 0
		for i < len(sm.batches) && sm.batches[i].last <= upTo {
			i++
		}
		// Delete clears the slots it vacates, so the backing array keeps
		// no dropped batch alive.
		sm.batches = slices.Delete(sm.batches, 0, i)
		if len(sm.batches) > 0 {
			sm.batches[0].after = max(sm.batches[0].after, upTo)
		}
		if upTo > sm.head {
			sm.head = upTo
		}
		sm.mu.Unlock()
	}
}

// readFrom returns up to max records with LSN in (after, tail]. Their
// Data alias the kept batches, which nobody writes.
func (sm *logChunkSM) readFrom(after types.LSN, max int) ([]plog.Record, error) {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	out := make([]plog.Record, 0, 64)
	for _, b := range sm.batches {
		if b.last <= after {
			continue
		}
		recs, err := plog.ReadRecords(b.recs)
		if err != nil {
			return nil, fmt.Errorf("polarfs: log batch (%d, %d]: %w", b.after, b.last, err)
		}
		floor := b.after
		var r plog.Record
		for recs.Next(&r) {
			if r.LSN <= floor {
				continue
			}
			floor = r.LSN
			if r.LSN > after {
				out = append(out, r)
				if max > 0 && len(out) >= max {
					return out, nil
				}
			}
		}
	}
	return out, nil
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
	if _, err := lc.replica.Propose(appendCommand(req), parallelraft.FullRange); err != nil {
		return nil, err
	}
	resp := wire.NewWriter(8)
	resp.U64(uint64(lc.sm.tailLSN()))
	return resp.Bytes(), nil
}

// appendCommand wraps an append request's record batch in the log
// chunk's append command, in a buffer of exactly its size. Raft never
// writes a command again, so the log keeps a view of its batch.
func appendCommand(req []byte) []byte {
	w := wire.NewWriter(1 + 4 + len(req))
	w.U8(logCmdAppend)
	w.Bytes32(req)
	return w.Bytes()
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
	recs, err := lc.sm.readFrom(after, max)
	if err != nil {
		return nil, err
	}
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
