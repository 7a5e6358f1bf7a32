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

// Unmarshal decodes a record from rd. Data aliases rd's buffer
// (wire.Reader.View32): a record decoded from a request or a raft command
// shares that never-written buffer instead of copying out of it.
func (r *Record) Unmarshal(rd *wire.Reader) {
	r.LSN = types.LSN(rd.U64())
	r.Page = types.PageID{Space: types.SpaceID(rd.U32()), No: types.PageNo(rd.U32())}
	r.Off = rd.U16()
	r.Data = rd.View32()
}

// BatchSize returns the wire size of the batch MarshalRecords(recs)
// encodes: the record count, then each record.
func BatchSize(recs []Record) int {
	n := 4
	for i := range recs {
		n += recs[i].size()
	}
	return n
}

// MarshalRecords encodes a batch of records into a buffer of exactly its
// size.
func MarshalRecords(recs []Record) []byte {
	w := wire.NewWriter(BatchSize(recs))
	writeBatch(w, recs)
	return w.Bytes()
}

// AppendRecords appends the batch to w as one length-prefixed field: the
// bytes w.Bytes32(MarshalRecords(recs)) would append, without encoding
// the batch on its own first.
func AppendRecords(w *wire.Writer, recs []Record) {
	w.U32(uint32(BatchSize(recs)))
	writeBatch(w, recs)
}

func writeBatch(w *wire.Writer, recs []Record) {
	w.U32(uint32(len(recs)))
	for i := range recs {
		recs[i].Marshal(w)
	}
}

// BatchReader walks an encoded record batch in place, allocating nothing;
// each record it yields aliases the batch. ReadRecords checks the whole
// batch first, so a walk cannot fail halfway: a consumer may apply the
// records as it goes and still leave its state untouched by a corrupt
// batch.
type BatchReader struct {
	rd   wire.Reader
	left int
}

// ReadRecords checks that buf holds a whole batch and returns a reader
// positioned at its first record.
func ReadRecords(buf []byte) (BatchReader, error) {
	b := BatchReader{rd: *wire.NewReader(buf)}
	b.left = int(b.rd.U32())
	check := b
	var r Record
	for i := 0; i < check.left && check.rd.Err() == nil; i++ {
		r.Unmarshal(&check.rd)
	}
	if err := check.rd.Err(); err != nil {
		return BatchReader{}, fmt.Errorf("plog: decoding %d records: %w", b.left, err)
	}
	return b, nil
}

// Len returns the number of records not yet walked.
func (b *BatchReader) Len() int { return b.left }

// Next decodes the next record into r and reports whether there was one.
func (b *BatchReader) Next(r *Record) bool {
	if b.left == 0 {
		return false
	}
	b.left--
	r.Unmarshal(&b.rd)
	return true
}

// UnmarshalRecords decodes a batch of records; their Data alias buf.
func UnmarshalRecords(buf []byte) ([]Record, error) {
	b, err := ReadRecords(buf)
	if err != nil {
		return nil, err
	}
	recs := make([]Record, b.Len())
	for i := range recs {
		b.Next(&recs[i])
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

// Watermark names one of the redo pipeline's progress marks on a Buffer:
// each is the LSN up to which every record has reached that stage.
type Watermark int

const (
	Drained Watermark = iota // taken out of the buffer by the shipper (Drain)
	Durable                  // persisted on the PolarFS log chunks
	Shipped                  // acknowledged by the owning page chunks
)

// Buffer is the RW node's in-memory redo log buffer. Appending an MTR
// atomically assigns it a contiguous LSN range. A flusher drains the buffer
// to PolarFS log chunks and page chunks, advancing the watermarks that
// commits, dirty evictions and bulk writers wait on.
type Buffer struct {
	mu      sync.Mutex
	moved   *sync.Cond // a watermark advanced, or the buffer failed
	pending []Record
	nextLSN types.LSN
	marks   [Shipped + 1]types.LSN
	failed  bool

	// Metrics are attached by the owning engine (AttachMetrics); nil
	// until then, so standalone buffers in tests stay dependency-free.
	metMTRs    *stat.Counter
	metRecords *stat.Counter
	metBytes   *stat.Counter
}

// NewBuffer creates a log buffer whose first record will get LSN start+1;
// every watermark starts at start.
func NewBuffer(start types.LSN) *Buffer {
	b := &Buffer{nextLSN: start + 1, marks: [...]types.LSN{start, start, start}}
	b.moved = sync.NewCond(&b.mu)
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

// Drain removes and returns all pending records, for the flusher to
// persist, and advances the Drained watermark past them.
func (b *Buffer) Drain() []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	recs := b.pending
	b.pending = nil
	if len(recs) > 0 {
		b.marks[Drained] = recs[len(recs)-1].LSN
		b.moved.Broadcast()
	}
	return recs
}

// Advance moves watermark w up to lsn (never down) and wakes its waiters.
func (b *Buffer) Advance(w Watermark, lsn types.LSN) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if lsn > b.marks[w] {
		b.marks[w] = lsn
		b.moved.Broadcast()
	}
}

// Mark returns watermark w.
func (b *Buffer) Mark(w Watermark) types.LSN {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.marks[w]
}

// Wait blocks until watermark w reaches lsn — for Durable, the commit
// wait: a transaction is committed once its MTRs' redo is durable. It
// returns false if the buffer failed (its flusher stopped) first.
func (b *Buffer) Wait(w Watermark, lsn types.LSN) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.marks[w] < lsn && !b.failed {
		b.moved.Wait()
	}
	return b.marks[w] >= lsn
}

// Fail marks the buffer dead (the flusher stopped: the node closed or lost
// its fabric connection): every current and future waiter returns at once
// with failure, so a crashed node cannot wedge clients that hold resources
// while committing.
func (b *Buffer) Fail() {
	b.mu.Lock()
	b.failed = true
	b.mu.Unlock()
	b.moved.Broadcast()
}
