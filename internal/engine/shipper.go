package engine

import (
	"time"

	"polardb/internal/plog"
	"polardb/internal/types"
)

// shipper is the RW node's redo pipeline worker (Figure 7). It sleeps
// until someone waits for redo (a commit, a dirty eviction, an RO's
// flush-page request, a planned handover), the buffer fills, the idle
// tick fires or the engine closes. Then it drains the log buffer,
// persists the records on the PolarFS log chunk (advancing the durable
// LSN transactions commit-wait on), distributes them to the owning page
// chunks and advances the shipped watermark that gates dirty-page
// eviction. A transaction's statement MTRs thus reach storage with its
// commit, in one append, instead of one append each. One ShipRecords
// batch is in flight at a time (DESIGN refinement 13). When it exits,
// every commit and ship waiter is released with a failure.
func (e *Engine) shipper() {
	defer e.wg.Done()
	defer e.buf.Fail() // no round will come for the waiters
	for {
		select {
		case <-e.closeCh:
			return
		case <-e.nudge:
		case <-time.After(shipInterval):
		}
		recs := e.buf.Drain()
		if len(recs) == 0 {
			continue
		}
		last := recs[len(recs)-1].LSN
		for {
			if _, err := e.pfs.AppendRedo(recs); err == nil {
				break
			}
			if !e.pause() {
				return
			}
		}
		e.buf.Advance(plog.Durable, last)
		e.met.flushBatch.Inc()
		e.met.flushRecs.Add(uint64(len(recs)))
		for e.pfs.ShipRecords(recs, last) != nil {
			if !e.pause() {
				return
			}
		}
		e.buf.Advance(plog.Shipped, last)
	}
}

// pause waits out a failed storage call before the shipper retries it,
// and reports false when it should stop instead. Storage is 3-way
// replicated; transient unavailability (leader election) heals — but if
// this node's own endpoint died, nothing will: the shipper stops, and the
// buffer fails so commit waiters unblock instead of wedging their callers.
func (e *Engine) pause() bool {
	if e.ep.Down() {
		return false
	}
	select {
	case <-e.closeCh:
		return false
	case <-time.After(2 * time.Millisecond):
		return true
	}
}

// checkpointer periodically syncs every partition's coverage to the
// shipped watermark and truncates redo below the cluster checkpoint,
// bounding both recovery work and log-chunk growth.
func (e *Engine) checkpointer() {
	defer e.wg.Done()
	for {
		select {
		case <-e.closeCh:
			return
		case <-time.After(e.cfg.CheckpointInterval):
		}
		w := e.buf.Mark(plog.Shipped)
		if w == 0 {
			continue
		}
		if err := e.pfs.AdvanceCoverage(w); err != nil {
			continue
		}
		cp, err := e.pfs.CheckpointLSN()
		if err != nil || cp == 0 {
			continue
		}
		//polarvet:allow errdrop truncation is best-effort housekeeping; a failure leaves extra redo that the next checkpoint tick retries
		_ = e.pfs.TruncateRedo(cp)
	}
}

// WaitAllShipped blocks until everything appended so far is shipped
// (planned handover, tests). It fails if the shipper stops first.
func (e *Engine) WaitAllShipped() error {
	return e.awaitShipper(plog.Shipped, e.buf.CurrentLSN())
}

// DurableCommit waits until lsn is durable on the log chunks. It fails
// if the node dies before durability is reached.
func (e *Engine) DurableCommit(lsn types.LSN) error {
	return e.awaitShipper(plog.Durable, lsn)
}
