// Package cluster assembles and operates a PolarDB Serverless cluster:
// storage nodes (PolarFS), memory nodes (remote pool with a replicated
// home), one RW and several RO database nodes, stateless proxies, and the
// Cluster Manager that drives failover and scaling (§3, §5).
package cluster

import (
	"fmt"
	"time"

	"polardb/internal/btree"
	"polardb/internal/parallelraft"
	"polardb/internal/polarfs"
	"polardb/internal/rdma"
	"polardb/internal/rmem"
)

// Config describes the cluster to launch.
type Config struct {
	// Fabric tunes the simulated RDMA network (zero value = defaults;
	// use rdma.TestConfig() for latency-free tests).
	Fabric rdma.Config
	// StorageNodes is the storage replica count (>= 3 for quorum).
	StorageNodes int
	// PageChunks partitions the volume across page chunks.
	PageChunks int
	// MemorySlabs / SlabPages size the remote memory pool: MemorySlabs
	// slabs of SlabPages pages each, all on the first memory node.
	MemorySlabs int
	SlabPages   int
	// SlaveHome adds a passive replica home for §5.2 failover.
	SlaveHome bool
	// NoRemoteMemory builds the shared-storage PolarDB baseline.
	NoRemoteMemory bool
	// RONodes is the number of read replicas.
	RONodes int
	// LocalCachePages sizes each database node's local cache tier.
	LocalCachePages int
	// ROMode picks Optimistic (default) or PessimisticS global latching.
	ROMode btree.TraverseMode
	// HeartbeatInterval / HeartbeatMisses tune RW failure detection
	// (the paper's CM works at 1 Hz; tests use milliseconds).
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// CheckpointInterval enables background coverage sync + log GC.
	CheckpointInterval time.Duration
	// LockWait bounds row lock waits (deadlocks resolve by timeout).
	LockWait time.Duration
}

func (c *Config) applyDefaults() {
	if c.StorageNodes == 0 {
		c.StorageNodes = 3
	}
	if c.PageChunks == 0 {
		c.PageChunks = 4
	}
	if c.MemorySlabs == 0 {
		c.MemorySlabs = 2
	}
	if c.SlabPages == 0 {
		c.SlabPages = 256
	}
	if c.LocalCachePages == 0 {
		c.LocalCachePages = 256
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = 3
	}
}

// Cluster is a running PolarDB Serverless deployment.
type Cluster struct {
	cfg    Config
	Fabric *rdma.Fabric

	Storage *polarfs.Deployment

	MemNode   rdma.NodeID
	Home      *rmem.Home
	SlaveHome *rmem.Home
	memCfg    rmem.Config

	RW    *DBNode
	ROs   []*DBNode
	Proxy *Proxy
	CM    *Manager

	nextNodeID int
}

// Launch builds and boots a cluster.
func Launch(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	c := &Cluster{cfg: cfg, Fabric: rdma.NewFabric(cfg.Fabric)}

	// Storage pool.
	eps := make([]*rdma.Endpoint, cfg.StorageNodes)
	for i := range eps {
		eps[i] = c.Fabric.MustAttach(rdma.NodeID(fmt.Sprintf("st%d", i)))
	}
	c.Storage = polarfs.Deploy(polarfs.VolumeConfig{
		PageChunks: cfg.PageChunks,
		// Generous raft timing: storage leadership must stay stable even
		// when the simulation is CPU-saturated on small machines.
		Raft: parallelraft.Config{
			HeartbeatInterval: 50 * time.Millisecond,
			ElectionTimeout:   2 * time.Second,
		},
	}, eps)

	// Memory pool.
	if !cfg.NoRemoteMemory {
		c.memCfg = rmem.Config{
			SlabPages:         cfg.SlabPages,
			InvalidateTimeout: time.Second,
			LatchTimeout:      5 * time.Second,
			SlabHeartbeat:     cfg.HeartbeatInterval,
		}
		c.MemNode = "mem0"
		var slaveID rdma.NodeID
		if cfg.SlaveHome {
			slaveID = "mem0b"
			c.SlaveHome = rmem.NewSlaveHome(c.Fabric.MustAttach(slaveID), c.memCfg)
		}
		if err := c.startPool(slaveID); err != nil {
			return nil, err
		}
	}

	// RW node.
	rw, err := c.newDBNode("rw0", nil)
	if err != nil {
		return nil, err
	}
	if err := rw.Engine.Bootstrap(); err != nil {
		return nil, err
	}
	c.RW = rw

	// RO nodes.
	for i := 0; i < cfg.RONodes; i++ {
		ro, err := c.newDBNode(rdma.NodeID(fmt.Sprintf("ro%d", i)), rw)
		if err != nil {
			return nil, err
		}
		c.ROs = append(c.ROs, ro)
	}

	c.Proxy = newProxy(c)
	c.CM = newManager(c)
	c.CM.Start()
	return c, nil
}

// startPool brings the memory pool up on MemNode: a slab node and the home
// (mirrored to slave, if named) on its endpoint, and MemorySlabs slabs.
func (c *Cluster) startPool(slave rdma.NodeID) error {
	ep := c.Fabric.MustAttachOrGet(c.MemNode)
	rmem.NewSlabNode(ep, c.memCfg)
	c.Home = rmem.NewHome(ep, c.memCfg, slave)
	_, err := c.GrowMemory(c.cfg.MemorySlabs)
	return err
}

// AddRO attaches a new read replica to the running cluster.
func (c *Cluster) AddRO() (*DBNode, error) {
	c.nextNodeID++
	id := rdma.NodeID(fmt.Sprintf("ro-x%d", c.nextNodeID))
	ro, err := c.newDBNode(id, c.RW)
	if err != nil {
		return nil, err
	}
	c.ROs = append(c.ROs, ro)
	c.Proxy.setNodes(c.RW, c.ROs)
	return ro, nil
}

// GrowMemory adds slabs to the remote pool; returns the new capacity in
// pages (Figure 8's scale-out events).
func (c *Cluster) GrowMemory(slabs int) (int, error) {
	total := 0
	for i := 0; i < slabs; i++ {
		t, err := c.Home.AddSlab(c.MemNode, c.cfg.SlabPages)
		if err != nil {
			return 0, err
		}
		total = t
	}
	return total, nil
}

// ShrinkMemory shrinks the pool to at most targetPages (Figure 8's
// scale-in events); unreferenced pages are evicted at once. Every node
// first sends the unregisters its librmem has queued, so that pages no
// node uses any more count as unreferenced.
func (c *Cluster) ShrinkMemory(targetPages int) (int, error) {
	for _, n := range append([]*DBNode{c.RW}, c.ROs...) {
		//polarvet:allow fabriccost one per database node: each sends its own queue, already batched into one round trip
		if err := n.Pool.Flush(); err != nil {
			return 0, err
		}
	}
	return c.Home.Shrink(targetPages)
}

// ResizeLocalCaches resizes every database node's local cache tier.
func (c *Cluster) ResizeLocalCaches(pages int) error {
	if err := c.RW.Engine.ResizeLocalCache(pages); err != nil {
		return err
	}
	for _, ro := range c.ROs {
		if err := ro.Engine.ResizeLocalCache(pages); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	c.CM.Stop()
	if c.RW != nil && c.RW.Engine != nil {
		c.RW.Engine.Close()
	}
	for _, ro := range c.ROs {
		ro.Engine.Close()
	}
	if c.Home != nil {
		c.Home.Close()
	}
	if c.SlaveHome != nil {
		c.SlaveHome.Close()
	}
	c.Storage.Close()
}
