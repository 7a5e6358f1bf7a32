// Package polarfs implements the shared storage pool of PolarDB
// Serverless: a PolarFS-style distributed store whose volumes are split
// into chunks, each replicated across three storage nodes with
// ParallelRaft (§2.1).
//
// Two chunk types exist, mirroring §3.4 (page materialization offloading):
//
//   - Log chunks persist the redo log. A transaction commits once its redo
//     records are raft-committed on a log chunk.
//   - Page chunks each own a partition of the database's pages. The RW node
//     ships redo records to the owning page chunks; every replica of the
//     chunk applies a batch to its one image per page when raft applies the
//     batch, and the leader acknowledges after its own apply. GetPage
//     returns that image, so dirty pages can be evicted from the remote
//     memory pool without ever being flushed.
//
// Unlike Aurora there is no gossip between storage nodes: every replica
// applies the same redo through ParallelRaft, so the replicated state
// machine keeps replicas consistent (the Socrates-like design the paper
// describes).
package polarfs

import (
	"errors"
	"fmt"
	"time"

	"polardb/internal/parallelraft"
	"polardb/internal/rdma"
)

// Errors surfaced to libpfs callers.
var (
	// ErrNotLeader indicates the contacted replica is not the chunk leader;
	// the client re-locates and retries.
	ErrNotLeader = parallelraft.ErrNotLeader
	// ErrPageTooOld means the page's image is newer than the requested LSN:
	// a chunk keeps one image per page, not its history.
	ErrPageTooOld = errors.New("polarfs: page image is newer than the requested lsn")
	// ErrStaleLSN means the chunk has not yet received redo covering the
	// requested LSN.
	ErrStaleLSN = errors.New("polarfs: chunk redo coverage below requested lsn")
)

// VolumeConfig describes a volume's layout.
type VolumeConfig struct {
	// Name prefixes all chunk group names.
	Name string
	// PageChunks is the number of page-chunk partitions. Pages are assigned
	// to partitions by hashing (space, page_no).
	PageChunks int
	// ReadLatency models the storage media + stack cost of serving a
	// GetPage (beyond network RPC time). Default 2ms — ~40x above a
	// one-sided remote memory read in the benchmark latency profile,
	// matching the hierarchy the paper's design exploits. Scaled by the
	// fabric's TimeScale, so latency-free test fabrics see none of it.
	ReadLatency time.Duration
	// Raft overrides consensus tuning knobs (Group/Peers are set per chunk).
	Raft parallelraft.Config
}

func (c *VolumeConfig) applyDefaults() {
	if c.Name == "" {
		c.Name = "vol"
	}
	if c.PageChunks == 0 {
		c.PageChunks = 4
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = 2 * time.Millisecond
	}
}

// LogGroup returns the raft group name of the volume's log chunk.
func (c *VolumeConfig) LogGroup() string { return c.Name + ".lc0" }

// PageGroup returns the raft group name of page-chunk partition p.
func (c *VolumeConfig) PageGroup(p int) string {
	return fmt.Sprintf("%s.pc%d", c.Name, p)
}

// Deployment is a volume deployed across a set of storage nodes.
type Deployment struct {
	Cfg   VolumeConfig
	Nodes []*StorageNode
	Peers []rdma.NodeID
}

// StorageNode hosts one replica of every chunk in the volume.
type StorageNode struct {
	ep         *rdma.Endpoint
	logChunk   *logChunk
	pageChunks []*pageChunk
}

// Endpoint returns the node's fabric endpoint.
func (n *StorageNode) Endpoint() *rdma.Endpoint { return n.ep }

// Close stops all chunk replicas on the node.
func (n *StorageNode) Close() {
	n.logChunk.close()
	for _, pc := range n.pageChunks {
		pc.close()
	}
}

// Deploy creates the volume's chunks replicated across the given endpoints
// (one replica of every chunk per node; production PolarFS spreads chunks
// over many nodes, which changes placement, not behaviour). The first
// endpoint's replicas bootstrap as leaders.
func Deploy(cfg VolumeConfig, eps []*rdma.Endpoint) *Deployment {
	cfg.applyDefaults()
	peers := make([]rdma.NodeID, len(eps))
	for i, ep := range eps {
		peers[i] = ep.ID()
	}
	d := &Deployment{Cfg: cfg, Peers: peers}
	for _, ep := range eps {
		n := &StorageNode{ep: ep}
		n.logChunk = newLogChunk(ep, cfg, peers)
		for p := 0; p < cfg.PageChunks; p++ {
			n.pageChunks = append(n.pageChunks, newPageChunk(ep, cfg, peers, p))
		}
		d.Nodes = append(d.Nodes, n)
	}
	return d
}

// Close stops every chunk replica in the deployment.
func (d *Deployment) Close() {
	for _, n := range d.Nodes {
		n.Close()
	}
}

func raftConfig(base parallelraft.Config, group string, peers []rdma.NodeID) parallelraft.Config {
	base.Group = group
	base.Peers = peers
	base.Bootstrap = true
	return base
}
