// Package plog implements the redo log: physiological log records grouped
// into mini-transactions (MTRs), and the in-memory log buffer on the RW
// node that assigns LSNs and hands flushed ranges to PolarFS log chunks.
//
// A record is a physical sub-page write: (page_id, offset, bytes). Replaying
// records in LSN order reconstructs any page byte-exactly, which is what
// page materialization offloading (§3.4) and parallel REDO recovery (§5.1)
// rely on.
package plog

import (
	"fmt"
	"sync"

	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// Record is a single redo log record: write Data at Off within Page.
// LSN is assigned when the record's MTR is appended to the log buffer.
type Record struct {
	LSN  types.LSN
	Page types.PageID
	Off  uint16
	Data []byte
}

// size returns the record's wire size.
func (r *Record) size() int { return types.RedoRecordHeader + len(r.Data) }

// Marshal appends the record's wire encoding to w.
func (r *Record) Marshal(w *wire.Writer) {
	w.U64(uint64(r.LSN))
	w.U32(uint32(r.Page.Space))
	w.U32(uint32(r.Page.No))
	w.U16(r.Off)
	w.Bytes32(r.Data)
}

// Unmarshal decodes a record from rd.
func (r *Record) Unmarshal(rd *wire.Reader) {
	r.LSN = types.LSN(rd.U64())
	r.Page = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	r.Off = rd.U16()
	r.Data = rd.Bytes32()
}

// MarshalRecords encodes a batch of records.
func MarshalRecords(recs []Record) []byte {
	w := wire.NewWriter(32 * len(recs))
	w.U32(uint32(len(recs)))
	for i := range recs {
		recs[i].Marshal(w)
	}
	return w.Bytes()
}

// UnmarshalRecords decodes a batch of records.
func UnmarshalRecords(buf []byte) ([]Record, error) {
	rd := wire.NewReader(buf)
	n := int(rd.U32())
	if rd.Err() != nil {
		return nil, rd.Err()
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i].Unmarshal(rd)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("plog: decoding %d records: %w", n, err)
	}
	return recs, nil
}

// ApplyToPage replays the record onto a page buffer. The buffer must be
// types.PageSize bytes. Records with out-of-range extents are a corruption
// bug, reported as an error rather than a panic so recovery paths can
// surface them.
func (r *Record) ApplyToPage(page []byte) error {
	end := int(r.Off) + len(r.Data)
	if end > len(page) {
		return fmt.Errorf("plog: record lsn=%d page=%s extent [%d,%d) exceeds page size %d",
			r.LSN, r.Page, r.Off, end, len(page))
	}
	copy(page[r.Off:end], r.Data)
	return nil
}

// MTR is a mini-transaction: a group of redo records that must apply
// atomically (e.g. all pages of a B+tree split). It accumulates records
// while the engine holds page latches and is committed to the log buffer
// as one contiguous LSN range.
type MTR struct {
	recs  []Record
	pages map[types.PageID]struct{}
}

// NewMTR returns an empty mini-transaction.
func NewMTR() *MTR {
	return &MTR{pages: make(map[types.PageID]struct{})}
}

// LogWrite records a physical write of data at off within page. The data
// is copied; callers may reuse the slice.
func (m *MTR) LogWrite(page types.PageID, off uint16, data []byte) {
	d := make([]byte, len(data))
	copy(d, data)
	m.recs = append(m.recs, Record{Page: page, Off: off, Data: d})
	m.pages[page] = struct{}{}
}

// Pages returns the distinct pages modified by the MTR. These are the pages
// that must be invalidated (page_invalidate) before the MTR's redo is
// flushed to storage.
func (m *MTR) Pages() []types.PageID {
	out := make([]types.PageID, 0, len(m.pages))
	for p := range m.pages {
		out = append(out, p)
	}
	return out
}

// Records returns the accumulated records (without LSNs until committed).
func (m *MTR) Records() []Record { return m.recs }

// Empty reports whether the MTR logged nothing.
func (m *MTR) Empty() bool { return len(m.recs) == 0 }

// Buffer is the RW node's in-memory redo log buffer. Appending an MTR
// atomically assigns it a contiguous LSN range. A flusher drains the buffer
// to PolarFS log chunks and advances the durable LSN.
type Buffer struct {
	mu      sync.Mutex
	pending []Record
	nextLSN types.LSN

	flushedMu sync.Mutex
	flushed   types.LSN
	failed    bool
	flushCond *sync.Cond

	// Metrics are attached by the owning engine (AttachMetrics); nil
	// until then, so standalone buffers in tests stay dependency-free.
	metMTRs    *stat.Counter
	metRecords *stat.Counter
	metBytes   *stat.Counter
}

// NewBuffer creates a log buffer whose first record will get LSN start+1.
func NewBuffer(start types.LSN) *Buffer {
	b := &Buffer{nextLSN: start + 1, flushed: start}
	b.flushCond = sync.NewCond(&b.flushedMu)
	return b
}

// AttachMetrics registers the buffer's counters in r. Must be called
// before the buffer sees concurrent traffic (the engine does so at
// construction time).
func (b *Buffer) AttachMetrics(r *stat.Registry) {
	b.metMTRs = r.Counter("plog.append.mtrs")
	b.metRecords = r.Counter("plog.append.records")
	b.metBytes = r.Counter("plog.append.bytes")
}

// Append assigns LSNs to the MTR's records and queues them for flushing.
// It returns the LSN of the last record (the MTR's commit LSN).
func (b *Buffer) Append(m *MTR) types.LSN {
	if b.metMTRs != nil {
		b.metMTRs.Inc()
		b.metRecords.Add(uint64(len(m.recs)))
		n := 0
		for i := range m.recs {
			n += m.recs[i].size()
		}
		b.metBytes.Add(uint64(n))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range m.recs {
		m.recs[i].LSN = b.nextLSN
		b.nextLSN++
	}
	b.pending = append(b.pending, m.recs...)
	return b.nextLSN - 1
}

// CurrentLSN returns the highest assigned LSN.
func (b *Buffer) CurrentLSN() types.LSN {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextLSN - 1
}

// Pending returns the number of records appended but not yet drained.
func (b *Buffer) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Drain removes and returns all pending records, for the flusher to persist.
func (b *Buffer) Drain() []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	recs := b.pending
	b.pending = nil
	return recs
}

// MarkFlushed advances the durable LSN and wakes waiters.
func (b *Buffer) MarkFlushed(lsn types.LSN) {
	b.flushedMu.Lock()
	if lsn > b.flushed {
		b.flushed = lsn
	}
	b.flushedMu.Unlock()
	b.flushCond.Broadcast()
}

// FlushedLSN returns the durable LSN.
func (b *Buffer) FlushedLSN() types.LSN {
	b.flushedMu.Lock()
	defer b.flushedMu.Unlock()
	return b.flushed
}

// WaitFlushed blocks until the durable LSN reaches lsn — the commit wait:
// a transaction is committed once its MTRs' redo is durable. It returns
// false if the buffer failed (node death) before lsn became durable.
func (b *Buffer) WaitFlushed(lsn types.LSN) bool {
	b.flushedMu.Lock()
	defer b.flushedMu.Unlock()
	for b.flushed < lsn && !b.failed {
		b.flushCond.Wait()
	}
	return b.flushed >= lsn
}

// Fail marks the buffer dead (the node lost its fabric connection): all
// current and future commit waiters return immediately with failure, so a
// crashed node cannot wedge clients that hold resources while committing.
func (b *Buffer) Fail() {
	b.flushedMu.Lock()
	b.failed = true
	b.flushedMu.Unlock()
	b.flushCond.Broadcast()
}
