// Package polar is the public API of the PolarDB Serverless
// reproduction: a cloud-native database for disaggregated data centers
// (Cao et al., SIGMOD 2021) built from scratch in Go.
//
// Open launches a complete simulated deployment in-process — PolarFS
// storage nodes replicated with ParallelRaft, a remote memory pool with
// RDMA-style one-sided access, one RW and N RO database nodes, a proxy
// and a cluster manager — and returns a handle for sessions, DDL, scaling
// and failover:
//
//	db, err := polar.Open(polar.Options{ReadReplicas: 2})
//	defer db.Close()
//	db.CreateTable("users")
//	s := db.Session()
//	s.Exec("users", polar.OpPut, 1, []byte("alice"))
//	v, ok, _ := s.Get("users", 1)
//
// Every resource pool scales independently at runtime: GrowMemory /
// ShrinkMemory resize the shared buffer pool, ResizeLocalCaches resizes
// the compute tier's caches, AddReadReplica attaches nodes, and
// SwitchOver migrates the RW with open transactions resuming from their
// savepoints.
package polar

import (
	"time"

	"polardb/internal/btree"
	"polardb/internal/cluster"
	"polardb/internal/rdma"
	"polardb/internal/stat"
)

// Session is a client connection through the proxy tier. Autocommit
// statements retry transparently across RW switches; open transactions
// resume from their savepoint after a planned switch.
type Session = cluster.Session

// WriteOp selects a write statement kind for Session.Exec.
type WriteOp = cluster.WriteOp

// Write statement kinds.
const (
	OpInsert = cluster.OpInsert
	OpUpdate = cluster.OpUpdate
	OpPut    = cluster.OpPut
	OpDelete = cluster.OpDelete
)

// ErrTxnLost is returned by a session whose transaction died with an
// unplanned RW failure.
var ErrTxnLost = cluster.ErrTxnLost

// ROLockMode selects the read replicas' global-latch protocol.
type ROLockMode int

const (
	// Optimistic (default): traversals take no global latches and
	// validate SMO stamps, retrying on conflict (§4.1 of the paper).
	Optimistic ROLockMode = iota
	// Pessimistic: traversals S-latch every page via RDMA CAS.
	Pessimistic
)

// Options configures a deployment. The zero value is a working
// single-replica cluster with simulated network latency disabled.
type Options struct {
	// SimulateLatency enables the RDMA fabric's latency model (remote
	// memory ~2µs, RPC ~5µs, storage ~100µs class). Benchmarks enable it;
	// functional tests leave it off.
	SimulateLatency bool

	// ReadReplicas is the number of RO nodes.
	ReadReplicas int

	// LocalCachePages sizes each database node's local cache tier
	// (default 256 pages = 1 MiB).
	LocalCachePages int

	// MemorySlabs / SlabPages size the remote memory pool (default
	// 2 slabs x 256 pages = 2 MiB).
	MemorySlabs int
	SlabPages   int

	// NoRemoteMemory disables the shared memory pool entirely — the
	// shared-storage ("PolarDB classic") configuration the paper compares
	// against.
	NoRemoteMemory bool

	// ROLockMode selects Optimistic (default) or Pessimistic RO latching.
	ROLockMode ROLockMode

	// HeartbeatInterval tunes RW failure detection (default 20ms; the
	// production system uses 1s).
	HeartbeatInterval time.Duration

	// SlaveHome replicates the memory pool's home-node metadata.
	SlaveHome bool
}

// DB is a running deployment.
type DB struct {
	c *cluster.Cluster
}

// Open launches a deployment.
func Open(opts Options) (*DB, error) {
	cfg := cluster.Config{
		RONodes:           opts.ReadReplicas,
		LocalCachePages:   opts.LocalCachePages,
		MemorySlabs:       opts.MemorySlabs,
		SlabPages:         opts.SlabPages,
		NoRemoteMemory:    opts.NoRemoteMemory,
		HeartbeatInterval: opts.HeartbeatInterval,
		SlaveHome:         opts.SlaveHome,
	}
	if opts.SimulateLatency {
		cfg.Fabric = rdma.DefaultConfig()
	} else {
		cfg.Fabric = rdma.TestConfig()
	}
	if opts.ROLockMode == Pessimistic {
		cfg.ROMode = btree.PessimisticS
	} else {
		cfg.ROMode = btree.Optimistic
	}
	c, err := cluster.Launch(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{c: c}, nil
}

// Close shuts the deployment down.
func (db *DB) Close() { db.c.Close() }

// Cluster exposes the underlying cluster for advanced control (node
// handles, engines, fabric statistics).
func (db *DB) Cluster() *cluster.Cluster { return db.c }

// Session opens a client session through the proxy.
func (db *DB) Session() *Session { return db.c.Proxy.Connect() }

// CreateTable creates a table with a clustered primary index.
func (db *DB) CreateTable(name string) error {
	_, err := db.c.RW.Engine.CreateTable(name)
	return err
}

// CreateIndex adds a secondary index to a table. Entries are maintained
// by the application within its transactions (see Session.Exec on the
// index's name — an index is itself a key-ordered tree).
func (db *DB) CreateIndex(table, index string) error {
	tbl, err := db.c.RW.Engine.OpenTable(table)
	if err != nil {
		return err
	}
	_, err = db.c.RW.Engine.CreateIndex(tbl, index)
	return err
}

// GrowMemory adds n slabs to the remote memory pool; returns the new
// capacity in pages.
func (db *DB) GrowMemory(n int) (int, error) { return db.c.GrowMemory(n) }

// ShrinkMemory shrinks the pool to at most targetPages.
func (db *DB) ShrinkMemory(targetPages int) (int, error) { return db.c.ShrinkMemory(targetPages) }

// MemoryPages returns the pool capacity in pages.
func (db *DB) MemoryPages() int { return db.c.Home.TotalSlots() }

// ResizeLocalCaches resizes every database node's local cache tier.
func (db *DB) ResizeLocalCaches(pages int) error { return db.c.ResizeLocalCaches(pages) }

// AddReadReplica attaches a new RO node.
func (db *DB) AddReadReplica() error {
	_, err := db.c.AddRO()
	return err
}

// SwitchOver performs a planned RW migration: sessions pause briefly and
// open transactions resume on the new RW from their savepoints (§3.5).
func (db *DB) SwitchOver() error { return db.c.CM.SwitchOver() }

// Failover simulates an unplanned RW crash plus CM-driven recovery.
func (db *DB) Failover() error {
	db.c.Proxy.RWNodeKill()
	return db.c.CM.Failover(false)
}

// Stats summarizes the deployment. It is a view computed by DB.Stats:
// sizes come from the pool and the RW node's cache, counters are sums
// over DB.Metrics of every node that ever ran, crashed RW nodes included.
type Stats struct {
	MemoryPages     int
	MemoryUsed      int
	LocalCachePages int
	Commits         uint64
	Aborts          uint64
	RemoteReads     uint64
	StorageReads    uint64
}

// Metrics returns the deployment's per-node metric registries: every
// fabric verb, remote-memory, storage and engine event each node
// recorded (see internal/stat and DESIGN.md "Observability").
func (db *DB) Metrics() *stat.NodeSet { return db.c.Fabric.Metrics() }

// Stats returns a snapshot of deployment counters.
func (db *DB) Stats() Stats {
	total := stat.Total(db.Metrics().Snapshot())
	s := Stats{
		LocalCachePages: db.c.RW.Engine.Cache().Stats().Capacity,
		Commits:         total.Counter("engine.txn.commit"),
		Aborts:          total.Counter("engine.txn.abort"),
		RemoteReads:     total.Counter("engine.page.remote_read"),
		StorageReads:    total.Counter("engine.page.storage_read"),
	}
	if db.c.Home != nil {
		hs := db.c.Home.Stats()
		s.MemoryPages = hs.TotalSlots
		s.MemoryUsed = hs.UsedSlots
	}
	return s
}
