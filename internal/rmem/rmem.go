// Package rmem implements the disaggregated remote memory pool of PolarDB
// Serverless (§3.1): slab nodes exposing Page Arrays over one-sided RDMA,
// and a home node holding the instance metadata —
//
//	PAT (Page Address Table)      page -> (slab node, offset, refcount)
//	PIB (Page Invalidation Bitmap) page -> stale bit, RDMA-readable
//	PRD (Page Reference Directory) page -> database nodes holding copies
//	PLT (Page Latch Table)         page -> global latch word, RDMA-CAS-able
//
// Database nodes use the librmem client (Pool) with the paper's five-call
// interface: page_register / page_unregister / page_read / page_write /
// page_invalidate. Page data moves exclusively through one-sided verbs;
// only control operations (registration, invalidation fan-out, latch slow
// path) are RPCs to the home node.
//
// The home node's metadata is synchronously replicated to a slave home
// (§5.2) so a home crash does not lose the pool.
package rmem

import (
	"errors"
	"time"

	"polardb/internal/rdma"
)

// Errors returned by the pool.
var (
	// ErrOutOfMemory means no slab has a free slot and nothing is evictable
	// (every cached page is referenced).
	ErrOutOfMemory = errors.New("rmem: remote memory pool exhausted")
	// ErrNotRegistered is returned for operations on pages the caller has
	// not registered.
	ErrNotRegistered = errors.New("rmem: page not registered")
	// ErrLatchTimeout means a global page latch could not be acquired.
	ErrLatchTimeout = errors.New("rmem: page latch acquisition timed out")
	// ErrMetaFull means the home node's metadata region is exhausted.
	ErrMetaFull = errors.New("rmem: home metadata region full")
)

// Config parameterizes a remote memory pool instance.
type Config struct {
	// SlabPages is the number of pages per slab (the paper's slabs are
	// 1 GB of 16 KB pages; we default to 256 4 KB pages = 1 MB).
	SlabPages int
	// InvalidateTimeout bounds the per-node invalidation fan-out; an RO
	// that does not respond in time is reported to OnUnresponsive and
	// kicked out of the reference directory so the invalidation succeeds.
	InvalidateTimeout time.Duration
	// LatchTimeout bounds slow-path global latch acquisition.
	LatchTimeout time.Duration
	// FreeLowWater triggers the background evictor when the fraction of
	// free slots drops below it (0 disables).
	FreeLowWater float64
	// EvictInterval is the background evictor period.
	EvictInterval time.Duration
	// SlabHeartbeat is how often the home pings its slab nodes; a node
	// missing SlabHeartbeatMisses pings is declared failed and its pages
	// dropped (§5.2). 0 disables detection (tests drive it manually).
	SlabHeartbeat       time.Duration
	SlabHeartbeatMisses int
	// OnUnresponsive is invoked (outside pool locks) when a database node
	// fails to acknowledge an invalidation; the cluster manager uses it to
	// kick the node.
	OnUnresponsive func(node rdma.NodeID)
}

func (c *Config) applyDefaults() {
	if c.SlabPages == 0 {
		c.SlabPages = 256
	}
	if c.InvalidateTimeout == 0 {
		c.InvalidateTimeout = time.Second
	}
	if c.LatchTimeout == 0 {
		c.LatchTimeout = 5 * time.Second
	}
	if c.EvictInterval == 0 {
		c.EvictInterval = 50 * time.Millisecond
	}
	if c.SlabHeartbeatMisses == 0 {
		c.SlabHeartbeatMisses = 3
	}
}

// method names one of the pool's RPC methods.
func method(op string) string { return "rmem.pool." + op }

// Stats is a snapshot of the pool's occupancy, computed on demand by
// Home.Stats. Event counts live in the home node's metric registry.
type Stats struct {
	Slabs      int
	TotalSlots int
	UsedSlots  int
	FreeSlots  int
	Referenced int // used slots with refcount > 0
}
