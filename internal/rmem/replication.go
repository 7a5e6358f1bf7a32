package rmem

import "polardb/internal/rdma"

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
// if a slave is configured, enqueues the same op for mirroring. Callers
// hold h.mu, so queue order is mutation order. The fabric call itself
// happens on the replication sender goroutine with no Home lock held —
// home metadata operations never serialize behind slave fabric latency
// (and can never deadlock against a slave calling back). Call sites that
// must not reply before the slave is current follow up with
// flushReplication once h.mu is released.
func (h *Home) mutate(op homeOp) {
	h.tab.apply(op)
	h.slaveMu.Lock()
	slave := h.slave
	h.slaveMu.Unlock()
	if slave == "" {
		return
	}
	h.replMu.Lock()
	h.replQ = append(h.replQ, op)
	h.replSeq++
	h.replCond.Broadcast()
	h.replMu.Unlock()
}

// flushReplication blocks until every previously enqueued mutation has
// been sent (or dropped with its dead slave). Must be called WITHOUT
// h.mu held — the wait spans a fabric round trip per queued op.
func (h *Home) flushReplication() {
	h.replMu.Lock()
	target := h.replSeq
	for h.replDone < target && !h.replStop {
		h.replCond.Wait()
	}
	h.replMu.Unlock()
}

// replSender is the single goroutine draining the replication queue, so
// mirrored mutations reach the slave in exactly the order the master
// applied them.
func (h *Home) replSender() {
	defer h.wg.Done()
	for {
		h.replMu.Lock()
		for len(h.replQ) == 0 && !h.replStop {
			h.replCond.Wait()
		}
		if len(h.replQ) == 0 {
			h.replMu.Unlock()
			return
		}
		op := h.replQ[0]
		h.replQ = h.replQ[1:]
		h.replMu.Unlock()
		h.sendReplicate(op)
		h.replMu.Lock()
		h.replDone++
		h.replCond.Broadcast()
		h.replMu.Unlock()
	}
}

// sendReplicate performs the actual mirror call. Failure is tolerated
// (the slave is then stale; the DBaaS would replace it); the master
// never blocks on a dead slave beyond the call timeout.
func (h *Home) sendReplicate(op homeOp) {
	h.slaveMu.Lock()
	slave := h.slave
	h.slaveMu.Unlock()
	if slave == "" {
		return
	}
	if _, err := h.ep.CallTimeout(slave, method("repl"), op.encode(), h.cfg.InvalidateTimeout); err != nil {
		h.slaveMu.Lock()
		h.slave = "" // drop the dead slave
		h.slaveMu.Unlock()
	}
}

// handleReplicate applies a mirrored mutation on the slave home.
func (h *Home) handleReplicate(from rdma.NodeID, req []byte) ([]byte, error) {
	op, err := decodeHomeOp(req)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.tab.apply(op)
	h.mu.Unlock()
	return nil, nil
}
