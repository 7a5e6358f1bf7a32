package polarfs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"polardb/internal/parallelraft"
	"polardb/internal/plog"
	"polardb/internal/rdma"
	"polardb/internal/retry"
	"polardb/internal/stat"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// Client is libpfs: the PolarFS access library linked into every database
// node. It locates chunk leaders, retries across leader changes, and
// exposes the volume operations the engine needs.
type Client struct {
	ep    *rdma.Endpoint
	cfg   VolumeConfig
	peers []rdma.NodeID
	met   pfsMetrics

	mu      sync.Mutex
	leaders map[string]rdma.NodeID
}

// pfsMetrics count the volume operations a database node issues through
// libpfs, with latency on the two paths the paper measures: page reads
// (the bottom of the three-tier hierarchy) and redo appends (the commit
// durability wait).
type pfsMetrics struct {
	getPage     *stat.Counter
	getPageLat  *stat.Histogram
	appendRedo  *stat.Counter
	appendLat   *stat.Histogram
	readRedo    *stat.Counter
	shipRecords *stat.Counter // redo records distributed to page chunks
}

func newPFSMetrics(r *stat.Registry) pfsMetrics {
	return pfsMetrics{
		getPage:     r.Counter("pfs.get_page.ops"),
		getPageLat:  r.Histogram("pfs.get_page.us"),
		appendRedo:  r.Counter("pfs.append_redo.ops"),
		appendLat:   r.Histogram("pfs.append_redo.us"),
		readRedo:    r.Counter("pfs.read_redo.ops"),
		shipRecords: r.Counter("pfs.ship.records"),
	}
}

// NewClient creates a libpfs client for the deployed volume, issuing
// requests from ep.
func NewClient(ep *rdma.Endpoint, cfg VolumeConfig, peers []rdma.NodeID) *Client {
	cfg.applyDefaults()
	return &Client{
		ep:      ep,
		cfg:     cfg,
		peers:   peers,
		met:     newPFSMetrics(ep.Metrics()),
		leaders: make(map[string]rdma.NodeID),
	}
}

// Config returns the volume configuration the client was built with.
func (c *Client) Config() VolumeConfig { return c.cfg }

// Partition returns the page-chunk partition owning the page.
func (c *Client) Partition(id types.PageID) int {
	return int(id.Key() % uint64(c.cfg.PageChunks))
}

// callTimeout bounds one volume operation, leader changes and retries
// included.
const callTimeout = 5 * time.Second

// call issues an RPC to the chunk group's leader, re-locating on failure.
func (c *Client) call(group, op string, req []byte) ([]byte, error) {
	deadline := time.Now().Add(callTimeout)
	b := retry.Until(deadline, 2*time.Millisecond)
	method := "pfs." + group + "." + op
	var lastErr error
	for {
		if c.ep.Down() {
			// Our own node died: no amount of retrying reaches storage.
			return nil, fmt.Errorf("polarfs: %s on %s: %w", op, group, rdma.ErrUnreachable)
		}
		c.mu.Lock()
		leader, ok := c.leaders[group]
		c.mu.Unlock()
		if !ok {
			l, err := parallelraft.LocateLeader(c.ep, group, c.peers, time.Until(deadline))
			if err != nil {
				return nil, fmt.Errorf("polarfs: locating leader of %s: %w (last: %v)", group, err, lastErr)
			}
			leader = l
			c.mu.Lock()
			c.leaders[group] = leader
			c.mu.Unlock()
		}
		resp, err := c.ep.Call(leader, method, req)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrPageTooOld) || errors.Is(err, ErrStaleLSN) {
			return nil, err
		}
		lastErr = err
		c.mu.Lock()
		delete(c.leaders, group)
		c.mu.Unlock()
		if !b.Sleep() {
			return nil, fmt.Errorf("polarfs: %s on %s: %w", op, group, err)
		}
	}
}

// AppendRedo durably appends redo records to the log chunk (3-way
// replicated). The transaction whose MTRs these records belong to may
// commit once this returns. Returns the chunk's new tail LSN.
func (c *Client) AppendRedo(recs []plog.Record) (types.LSN, error) {
	c.met.appendRedo.Inc()
	start := time.Now()
	resp, err := c.call(c.cfg.LogGroup(), "append", plog.MarshalRecords(recs))
	if err != nil {
		return 0, err
	}
	c.met.appendLat.Observe(time.Since(start))
	rd := wire.NewReader(resp)
	tail := types.LSN(rd.U64())
	return tail, rd.Err()
}

// ReadRedo returns up to max redo records with LSN > after (0 = no limit).
func (c *Client) ReadRedo(after types.LSN, max int) ([]plog.Record, error) {
	c.met.readRedo.Inc()
	w := wire.NewWriter(16)
	w.U64(uint64(after))
	w.U32(uint32(max))
	resp, err := c.call(c.cfg.LogGroup(), "read", w.Bytes())
	if err != nil {
		return nil, err
	}
	return plog.UnmarshalRecords(resp)
}

// RedoTail returns the durable tail LSN of the redo log.
func (c *Client) RedoTail() (types.LSN, error) {
	resp, err := c.call(c.cfg.LogGroup(), "tail", nil)
	if err != nil {
		return 0, err
	}
	rd := wire.NewReader(resp)
	tail := types.LSN(rd.U64())
	return tail, rd.Err()
}

// TruncateRedo garbage-collects redo records with LSN <= upTo. Safe once
// every page chunk's coverage has passed upTo.
func (c *Client) TruncateRedo(upTo types.LSN) error {
	w := wire.NewWriter(8)
	w.U64(uint64(upTo))
	_, err := c.call(c.cfg.LogGroup(), "truncate", w.Bytes())
	return err
}

// ShipRecords distributes redo records to the page chunks owning their
// pages (step 2 of Figure 7), advancing the touched partitions' coverage
// to coverage ("all redo <= coverage affecting you is included"). It
// returns once every touched partition has durably acknowledged.
// Untouched partitions' coverage is advanced lazily by AdvanceCoverage.
func (c *Client) ShipRecords(recs []plog.Record, coverage types.LSN) error {
	c.met.shipRecords.Add(uint64(len(recs)))
	byPart := make(map[int][]plog.Record)
	for _, r := range recs {
		p := c.Partition(r.Page)
		byPart[p] = append(byPart[p], r)
	}
	for p, batch := range byPart {
		//polarvet:allow fabriccost already batched per destination: one AddRecords RPC carries a partition's whole record batch
		if err := c.AddRecords(p, batch, coverage); err != nil {
			return err
		}
	}
	return nil
}

// AdvanceCoverage raises every partition's coverage to at least lsn (the
// shipper has distributed all records <= lsn). Used by checkpointing and
// the final stage of parallel REDO.
func (c *Client) AdvanceCoverage(lsn types.LSN) error {
	for p := 0; p < c.cfg.PageChunks; p++ {
		if err := c.AddRecords(p, nil, lsn); err != nil {
			return err
		}
	}
	return nil
}

// AddRecords sends a batch of redo records to one page-chunk partition.
// recs may be empty to advance coverage only.
func (c *Client) AddRecords(part int, recs []plog.Record, coverage types.LSN) error {
	w := wire.NewWriter(64 + 32*len(recs))
	w.U64(uint64(coverage))
	w.Bytes32(plog.MarshalRecords(recs))
	_, err := c.call(c.cfg.PageGroup(part), "add", w.Bytes())
	return err
}

// GetPage fetches the page's contents as of atLSN (MaxLSN = latest known to
// the chunk). exists is false if the chunk has never seen the page.
func (c *Client) GetPage(id types.PageID, atLSN types.LSN) (data []byte, lsn types.LSN, exists bool, err error) {
	c.met.getPage.Inc()
	start := time.Now()
	w := wire.NewWriter(16)
	w.U32(uint32(id.Space))
	w.U32(uint32(id.No))
	w.U64(uint64(atLSN))
	resp, err := c.call(c.cfg.PageGroup(c.Partition(id)), "get", w.Bytes())
	if err != nil {
		return nil, 0, false, err
	}
	c.met.getPageLat.Observe(time.Since(start))
	rd := wire.NewReader(resp)
	exists = rd.Bool()
	lsn = types.LSN(rd.U64())
	data = rd.Bytes32()
	return data, lsn, exists, rd.Err()
}

// Coverage returns a partition's redo coverage LSN.
func (c *Client) Coverage(part int) (types.LSN, error) {
	resp, err := c.call(c.cfg.PageGroup(part), "coverage", nil)
	if err != nil {
		return 0, err
	}
	rd := wire.NewReader(resp)
	cov := types.LSN(rd.U64())
	return cov, rd.Err()
}

// CheckpointLSN returns min over partitions of coverage: every page chunk
// holds all updates up to this LSN, so REDO recovery may start here
// (step 3 of §5.1).
func (c *Client) CheckpointLSN() (types.LSN, error) {
	cp := MaxLSN
	for p := 0; p < c.cfg.PageChunks; p++ {
		cov, err := c.Coverage(p)
		if err != nil {
			return 0, err
		}
		if cov < cp {
			cp = cov
		}
	}
	return cp, nil
}

// ParallelRedo reimplements the REDO phase of §5.1 steps 3-4: collect the
// checkpoint LSN, read the redo log from there to the tail, and distribute
// the records to the page chunks, which consume them concurrently. It
// returns the checkpoint and tail LSNs.
func (c *Client) ParallelRedo() (cp, tail types.LSN, err error) {
	cp, err = c.CheckpointLSN()
	if err != nil {
		return 0, 0, fmt.Errorf("polarfs: collecting checkpoint: %w", err)
	}
	tail, err = c.RedoTail()
	if err != nil {
		return 0, 0, fmt.Errorf("polarfs: reading redo tail: %w", err)
	}
	const batch = 512
	after := cp
	for after < tail {
		recs, err := c.ReadRedo(after, batch)
		if err != nil {
			return 0, 0, fmt.Errorf("polarfs: reading redo after %d: %w", after, err)
		}
		if len(recs) == 0 {
			break
		}
		last := recs[len(recs)-1].LSN
		if err := c.ShipRecords(recs, last); err != nil {
			return 0, 0, fmt.Errorf("polarfs: distributing redo: %w", err)
		}
		after = last
	}
	// Advance all partitions' coverage to the tail even if they received
	// no records, so the next checkpoint collection reflects full recovery.
	if err := c.AdvanceCoverage(tail); err != nil {
		return 0, 0, err
	}
	return cp, tail, nil
}
