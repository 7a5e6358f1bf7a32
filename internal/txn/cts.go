package txn

import (
	"errors"
	"fmt"
	"sync"

	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/types"
)

// CTS region layout on the RW node. The whole region is registered with
// the RDMA NIC so RO nodes can take read views and look up the CTS log
// with one-sided verbs, never consuming RW CPU (§3.3).
//
//	word 0: CTS counter (fetch-and-add)
//	word 1: published redo LSN (the SMO clock for optimistic traversals)
//	view block (see PublishView):
//	  [version][viewTS][n][ids × SlotCount()][version]
//	16-byte slots from ctsLogBase: CTS log — (trxID, cts_commit) of the
//	most recent read-write transactions, indexed by trxID % slots.
//
// The header — both words and the view block — is what one ReadView
// fetches, in one read.
const (
	ctsCounterOff = 0
	ctsLSNOff     = 8
	viewHeadOff   = 16
	viewTSOff     = viewHeadOff + 8
	viewCountOff  = viewTSOff + 8
	viewIDsOff    = viewCountOff + 8
	viewTailOff   = viewIDsOff + 8*viewSlots
	ctsHeaderSize = viewTailOff + 8
	ctsLogBase    = (ctsHeaderSize + 63) &^ 63
)

// viewReadRetries bounds how often ReadView fetches the header again
// after catching a publish half done. On hardware a publish is a few
// local stores and a retry a fabric read, thousands of times longer; here
// a publish holds the region's lock, so only a test can tear the block.
const viewReadRetries = 8

// Errors of the published read view.
var (
	// ErrViewUnpublished: the region's owner has not published a view yet
	// (it is still bootstrapping or recovering). Never an empty view.
	ErrViewUnpublished = errors.New("txn: read view not published yet")
	// ErrViewTorn: every one of viewReadRetries reads caught the block
	// between its two version words.
	ErrViewTorn = errors.New("txn: published read view kept changing under the read")
)

// DefaultCTSSlots is the default CTS log capacity (the paper keeps the
// last ~1,000,000 transactions; we scale down with the rest).
const DefaultCTSSlots = 1 << 14

// RegionSize returns the byte size of a CTS region with the given slots.
func RegionSize(slots int) int { return ctsLogBase + slots*16 }

// Service is the RW-node side of the CTS sequence and log.
type Service struct {
	region *rdma.Region
	slots  int
	mu     sync.Mutex // serializes slot writes (seqlock-free simulation)
}

// NewService wraps an RDMA-registered region (of RegionSize bytes). The
// counter starts at 1 so timestamp 0 means "unset".
func NewService(region *rdma.Region, slots int) *Service {
	if slots == 0 {
		slots = DefaultCTSSlots
	}
	s := &Service{region: region, slots: slots}
	region.MustStore64Local(ctsCounterOff, 1)
	return s
}

// NextTS allocates a new monotonic timestamp (cts_read / cts_commit).
func (s *Service) NextTS() types.Timestamp {
	v, err := s.region.FetchAdd64Local(ctsCounterOff, 1)
	if err != nil {
		panic("txn: cts region misconfigured: " + err.Error())
	}
	return types.Timestamp(v + 1)
}

// SetCounter forces the sequence to continue from ts (recovery restores
// the persisted high watermark so new timestamps exceed every old one).
func (s *Service) SetCounter(ts types.Timestamp) {
	s.region.MustStore64Local(ctsCounterOff, uint64(ts))
}

// CurrentTS returns the latest allocated timestamp without advancing.
func (s *Service) CurrentTS() types.Timestamp {
	v := s.region.MustLoad64Local(ctsCounterOff)
	return types.Timestamp(v)
}

// PublishLSN exposes the redo LSN to RO nodes (SMO clock, §4.1).
func (s *Service) PublishLSN(lsn types.LSN) {
	s.region.MustStore64Local(ctsLSNOff, uint64(lsn))
}

// PublishView rewrites the view block: the read view every RO statement
// starts from. active is the set of in-flight transactions that own an
// undo slot — the only ones that can have written a record — and the
// block's timestamp is the counter as it stands during the call, so a
// caller that holds one lock across "change the set" and PublishView
// publishes the set as of a moment its timestamp belongs to. Calls must
// be serialized by that lock: the last call wins.
//
// A real NIC's READ is not atomic across cache lines, so the block is
// bracketed by its version, written back to front (tail, body, head)
// against a reader that takes it front to back: a read whose two versions
// agree lies wholly after one publish's last store and before the next
// one's first.
func (s *Service) PublishView(active []types.TrxID) {
	if len(active) > viewSlots {
		panic(fmt.Sprintf("txn: %d slot owners, the slot table holds %d", len(active), viewSlots))
	}
	err := s.region.UpdateLocal(0, ctsHeaderSize, func(hdr []byte) error {
		version := getU64(hdr[viewHeadOff:]) + 1
		putU64(hdr[viewTailOff:], version)
		copy(hdr[viewTSOff:viewCountOff], hdr[ctsCounterOff:])
		putU64(hdr[viewCountOff:], uint64(len(active)))
		for i, t := range active {
			putU64(hdr[viewIDsOff+8*i:], uint64(t))
		}
		putU64(hdr[viewHeadOff:], version)
		return nil
	})
	if err != nil {
		panic("txn: cts region misconfigured: " + err.Error())
	}
}

func (s *Service) slotOff(trx types.TrxID) uint64 {
	return uint64(ctsLogBase) + (uint64(trx)%uint64(s.slots))*16
}

// BeginInLog claims the transaction's CTS log slot with cts 0 (active).
// Returns false if the slot is still owned by a different *uncommitted*
// transaction — callers treat that as too many in-flight transactions.
func (s *Service) BeginInLog(trx types.TrxID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := s.slotOff(trx)
	var cur [16]byte
	s.region.MustReadLocal(off, cur[:])
	curTrx := types.TrxID(getU64(cur[0:]))
	curCTS := getU64(cur[8:])
	if curTrx != 0 && curTrx != trx && curCTS == 0 {
		return false
	}
	var buf [16]byte
	putU64(buf[0:], uint64(trx))
	s.region.MustWriteLocal(off, buf[:])
	return true
}

// RecordCommit publishes the transaction's commit timestamp in the log.
func (s *Service) RecordCommit(trx types.TrxID, cts types.Timestamp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf [16]byte
	putU64(buf[0:], uint64(trx))
	putU64(buf[8:], uint64(cts))
	s.region.MustWriteLocal(s.slotOff(trx), buf[:])
}

// abortedCTS is the commit timestamp RecordAbort writes: above every
// cts_read there will ever be.
const abortedCTS = ^types.Timestamp(0)

// RecordAbort publishes that the transaction rolled back. A reader may
// still hold a record of it, read before the rollback restored the row;
// to a view that does not list the transaction a cleared slot would say
// "older than everything in the log, hence committed", where this says
// "committed after every view": invisible, and the slot reusable.
func (s *Service) RecordAbort(trx types.TrxID) { s.RecordCommit(trx, abortedCTS) }

// Lookup resolves a transaction's commit status from the local CTS log.
func (s *Service) Lookup(trx types.TrxID) (cts types.Timestamp, known bool) {
	var buf [16]byte
	s.region.MustReadLocal(s.slotOff(trx), buf[:])
	return decodeSlot(trx, buf[:])
}

func decodeSlot(trx types.TrxID, buf []byte) (types.Timestamp, bool) {
	if types.TrxID(getU64(buf[0:])) != trx {
		return 0, false // slot reused by a newer transaction
	}
	return types.Timestamp(getU64(buf[8:])), true
}

// Client is the RO-node view of the CTS region, using one-sided RDMA.
type Client struct {
	ep     *rdma.Endpoint
	rw     rdma.NodeID
	region uint32
	slots  int
	met    ctsMetrics
}

// ctsMetrics count the one-sided CTS accesses an RO issues (§3.3: all
// timestamp traffic bypasses the RW CPU).
type ctsMetrics struct {
	readTS  *stat.Counter // cts_read fetches: reads of the header (view block)
	nextTS  *stat.Counter // remote FETCH_ADD timestamp allocations
	readLSN *stat.Counter // SMO-clock refreshes: reads of the LSN word alone
	lookup  *stat.Counter // CTS log slot reads (commit-status checks)
}

// NewClient builds a CTS client addressing the RW node's CTS region.
func NewClient(ep *rdma.Endpoint, rw rdma.NodeID, region uint32, slots int) *Client {
	if slots == 0 {
		slots = DefaultCTSSlots
	}
	r := ep.Metrics()
	return &Client{ep: ep, rw: rw, region: region, slots: slots, met: ctsMetrics{
		readTS:  r.Counter("txn.cts.read_ts.ops"),
		nextTS:  r.Counter("txn.cts.next_ts.ops"),
		readLSN: r.Counter("txn.cts.read_lsn.ops"),
		lookup:  r.Counter("txn.cts.lookup.ops"),
	}}
}

// SetRW repoints the client after an RW failover.
func (c *Client) SetRW(rw rdma.NodeID, region uint32) {
	c.rw = rw
	c.region = region
}

func (c *Client) addr(off uint64) rdma.Addr {
	return rdma.Addr{Node: c.rw, Region: c.region, Off: off}
}

// ReadView takes a read-only transaction's snapshot — cts_read (the
// published timestamp + 1) with the in-flight list, and the published
// redo LSN beside them — with one one-sided read of the region header
// (§3.3), again if the read caught a publish half done.
func (c *Client) ReadView() (*ReadView, types.LSN, error) {
	var hdr [ctsHeaderSize]byte
	for try := 0; try < viewReadRetries; try++ {
		c.met.readTS.Inc()
		if err := c.ep.Read(c.addr(0), hdr[:]); err != nil {
			return nil, 0, err
		}
		version := getU64(hdr[viewHeadOff:])
		if version != getU64(hdr[viewTailOff:]) {
			continue
		}
		if version == 0 {
			return nil, 0, ErrViewUnpublished
		}
		n := getU64(hdr[viewCountOff:])
		if n > viewSlots {
			return nil, 0, fmt.Errorf("%w: view block lists %d transactions", ErrBadRecord, n)
		}
		active := make([]types.TrxID, n)
		for i := range active {
			active[i] = types.TrxID(getU64(hdr[viewIDsOff+8*i:]))
		}
		readTS := types.Timestamp(getU64(hdr[viewTSOff:])) + 1
		return NewReadView(readTS, 0, active), types.LSN(getU64(hdr[ctsLSNOff:])), nil
	}
	return nil, 0, ErrViewTorn
}

// NextTS allocates a timestamp remotely via RDMA fetch-and-add (used when
// an RO coordinates a cross-node operation needing a unique timestamp).
func (c *Client) NextTS() (types.Timestamp, error) {
	c.met.nextTS.Inc()
	v, err := c.ep.FetchAdd64(c.addr(ctsCounterOff), 1)
	return types.Timestamp(v + 1), err
}

// ReadLSN reads the published redo LSN (SMO clock) alone, one-sided: the
// refresh after an optimistic traversal met a stamp newer than the clock
// its statement's view carried.
func (c *Client) ReadLSN() (types.LSN, error) {
	c.met.readLSN.Inc()
	v, err := c.ep.Load64(c.addr(ctsLSNOff))
	return types.LSN(v), err
}

// Lookup resolves a transaction's commit status by reading its CTS log
// slot with one one-sided RDMA read — no RW CPU involved.
func (c *Client) Lookup(trx types.TrxID) (cts types.Timestamp, known bool, err error) {
	c.met.lookup.Inc()
	var buf [16]byte
	off := uint64(ctsLogBase) + (uint64(trx)%uint64(c.slots))*16
	if err := c.ep.Read(c.addr(off), buf[:]); err != nil {
		return 0, false, err
	}
	cts, known = decodeSlot(trx, buf[:])
	return cts, known, nil
}
