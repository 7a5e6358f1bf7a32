package engine

import (
	"fmt"
	"time"

	"polardb/internal/plog"
	"polardb/internal/types"
)

// shipper is the RW node's redo pipeline worker (Figure 7): it drains the
// log buffer, persists the records on the PolarFS log chunk (advancing the
// durable LSN transactions commit-wait on), then distributes the records
// to the owning page chunks and advances the shipped watermark that gates
// dirty-page eviction.
func (e *Engine) shipper() {
	defer e.wg.Done()
	var pending []plog.Record
	for {
		recs := e.buf.Drain()
		pending = append(pending, recs...)
		if len(pending) == 0 {
			select {
			case <-e.closeCh:
				return
			case <-e.nudge:
			case <-time.After(shipInterval):
			}
			continue
		}
		last := pending[len(pending)-1].LSN
		if !e.retry(func() error {
			_, err := e.pfs.AppendRedo(pending)
			return err
		}) {
			return
		}
		e.buf.MarkFlushed(last)
		e.met.flushBatch.Inc()
		e.met.flushRecs.Add(uint64(len(pending)))
		if !e.retry(func() error { return e.pfs.ShipRecords(pending, last) }) {
			return
		}
		e.setShipped(last)
		pending = pending[:0]
	}
}

// retry runs fn until it succeeds or the engine closes. Storage is
// 3-way replicated; transient unavailability (leader election) heals —
// but if this node's own endpoint died, nothing will: the buffer is
// failed so commit waiters unblock instead of wedging their callers.
func (e *Engine) retry(fn func() error) bool {
	for {
		if err := fn(); err == nil {
			return true
		}
		if e.ep.Down() {
			e.buf.Fail()
			return false
		}
		select {
		case <-e.closeCh:
			return false
		case <-time.After(2 * time.Millisecond):
		}
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
		e.shippedMu.Lock()
		w := e.shippedLSN
		e.shippedMu.Unlock()
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
// (planned handover, tests).
func (e *Engine) WaitAllShipped() {
	target := e.buf.CurrentLSN()
	e.nudgeShipper()
	e.waitShipped(target)
}

// DurableCommit waits until lsn is durable on the log chunks. It fails
// if the node dies before durability is reached.
func (e *Engine) DurableCommit(lsn types.LSN) error {
	e.nudgeShipper()
	if !e.buf.WaitFlushed(lsn) {
		return fmt.Errorf("%w: node failed before commit became durable", ErrClosed)
	}
	return nil
}
