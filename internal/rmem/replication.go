package rmem

import (
	"polardb/internal/rdma"
	"polardb/internal/wire"
)

// Home-node metadata replication (§5.2): because the home's control
// metadata (PAT, PIB, PRD) is essential for cross-node consistency, it is
// one op log. Every mutation is a homeOp that the master applies to its
// homeTable and mirrors synchronously to a slave home replica, which
// applies the same op to its own. The slave therefore keeps the same
// page->slab-slot mapping, metadata slot offsets and node indexes (the
// data itself lives on slab nodes and survives a home crash), so after
// Promote the pool's contents are still addressable and PL words written
// by surviving nodes still name the right owner.
//
// Two pieces of state are deliberately NOT replicated:
//   - PL latch words: latches die with the master; RW-node recovery
//     releases them all anyway (step 6 of §5.1).
//   - PIB clears: the RW clears PIB bits with one-sided writes the master
//     never observes, so the slave marks everything stale at promotion and
//     database nodes re-validate against storage on first touch.

// mutate performs one metadata mutation: it applies op to the table and,
// if a slave is configured, queues the same op for mirroring. Callers hold
// h.mu, so queue order is mutation order, and follow up with
// flushReplication once h.mu is released: the home replies to no request
// before the slave is current.
func (h *Home) mutate(op homeOp) {
	h.tab.apply(op)
	if h.slave != "" {
		h.replQ = append(h.replQ, op)
		h.replSeq++
	}
}

// flushReplication returns once every mutation queued before the call has
// been sent (or dropped with its dead slave). Must be called WITHOUT h.mu
// held. The first caller that finds unsent ops and no send in flight
// sends the whole queue, in one repl call, with h.mu released: home
// metadata operations never serialize behind slave fabric latency (and
// can never deadlock against a slave calling back). One send at a time
// keeps the slave's ops in the master's order; other callers wait for it.
func (h *Home) flushReplication() {
	h.mu.Lock()
	defer h.mu.Unlock()
	target := h.replSeq
	for h.replSent < target {
		if h.replSending {
			h.replCond.Wait()
			continue
		}
		ops, slave := h.replQ, h.slave
		h.replQ, h.replSending = nil, true
		h.mu.Unlock()
		err := h.sendReplicate(slave, ops)
		h.mu.Lock()
		if err != nil && h.slave == slave {
			// Tolerated: the slave is then stale, and the DBaaS would
			// replace it. The master never blocks on a dead slave beyond
			// the call timeout.
			h.slave = ""
		}
		h.replSent += uint64(len(ops))
		h.replSending = false
		h.replCond.Broadcast()
	}
}

// sendReplicate mirrors a batch of ops to the slave: a count, then each op.
func (h *Home) sendReplicate(slave rdma.NodeID, ops []homeOp) error {
	if slave == "" {
		return nil // dropped after these were queued
	}
	w := wire.NewWriter(4 + 64*len(ops))
	w.U32(uint32(len(ops)))
	for _, op := range ops {
		op.encode(w)
	}
	_, err := h.ep.CallTimeout(slave, method("repl"), w.Bytes(), h.cfg.InvalidateTimeout)
	return err
}

// handleReplicate applies a batch of mirrored mutations on the slave home,
// in the master's order.
func (h *Home) handleReplicate(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	ops := make([]homeOp, rd.Count(homeOpMinBytes))
	for i := range ops {
		ops[i] = decodeHomeOp(rd)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	for _, op := range ops {
		h.tab.apply(op)
	}
	h.mu.Unlock()
	return nil, nil
}
