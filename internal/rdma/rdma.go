// Package rdma simulates an RDMA fabric connecting the nodes of a
// disaggregated data center.
//
// The real PolarDB Serverless runs on RoCEv2 NICs and relies on two
// properties of RDMA that this package reproduces in-process:
//
//   - One-sided verbs (READ, WRITE, CAS, FETCH_ADD) that access registered
//     remote memory regions without involving the remote CPU.
//   - A latency hierarchy: local memory ≪ remote memory ≪ remote storage.
//
// Every node in the simulation owns an Endpoint. Endpoints register memory
// Regions (making them remotely accessible) and RPC handlers (two-sided
// messaging). All cross-node interaction in the repository flows through
// this package, never through shared Go pointers, so coherence and
// consistency protocols must actually run.
package rdma

import (
	"errors"
	"fmt"
	"sync"

	"polardb/internal/stat"
)

// NodeID identifies a node attached to the fabric.
type NodeID string

// Common errors returned by fabric operations.
var (
	ErrUnreachable   = errors.New("rdma: node unreachable")
	ErrNoSuchNode    = errors.New("rdma: no such node")
	ErrNoSuchRegion  = errors.New("rdma: no such memory region")
	ErrOutOfBounds   = errors.New("rdma: access out of region bounds")
	ErrNoSuchHandler = errors.New("rdma: no such rpc handler")
	ErrMisaligned    = errors.New("rdma: atomic access must be 8-byte aligned")
	ErrDuplicateNode = errors.New("rdma: node id already attached")
)

// Fabric is the switched network connecting all nodes. It owns the latency
// model and the per-node metric registries.
type Fabric struct {
	cfg     Config
	metrics *stat.NodeSet

	mu    sync.RWMutex
	nodes map[NodeID]*Endpoint
}

// NewFabric creates a fabric with the given configuration.
func NewFabric(cfg Config) *Fabric {
	cfg.applyDefaults()
	return &Fabric{cfg: cfg, metrics: stat.NewNodeSet(), nodes: make(map[NodeID]*Endpoint)}
}

// Metrics returns the fabric's per-node metric registries. Endpoints
// record their verb traffic here under their node id, and components
// running on a node share its registry via Endpoint.Metrics.
func (f *Fabric) Metrics() *stat.NodeSet { return f.metrics }

// attachLocked registers and returns a fresh endpoint for id. The caller
// holds f.mu and has checked id is not already attached.
func (f *Fabric) attachLocked(id NodeID) *Endpoint {
	ep := &Endpoint{
		id:       id,
		fabric:   f,
		verbs:    newVerbMetrics(f.metrics.Node(string(id))),
		regions:  make(map[uint32]*Region),
		handlers: make(map[string]Handler),
	}
	f.nodes[id] = ep
	return ep
}

// Attach creates and registers an endpoint for a new node.
func (f *Fabric) Attach(id NodeID) (*Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	return f.attachLocked(id), nil
}

// MustAttach is Attach that panics on error; for wiring code where a
// duplicate node id is a programming bug.
func (f *Fabric) MustAttach(id NodeID) *Endpoint {
	ep, err := f.Attach(id)
	if err != nil {
		panic(err)
	}
	return ep
}

// MustAttachOrGet returns the node's endpoint, attaching it if new.
func (f *Fabric) MustAttachOrGet(id NodeID) *Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ep, ok := f.nodes[id]; ok {
		return ep
	}
	return f.attachLocked(id)
}

// Detach removes a node from the fabric. Subsequent operations targeting it
// fail with ErrNoSuchNode.
func (f *Fabric) Detach(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.nodes, id)
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// lookup finds a live endpoint, honouring kill/partition state.
func (f *Fabric) lookup(id NodeID) (*Endpoint, error) {
	f.mu.RLock()
	ep, ok := f.nodes[id]
	f.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, id)
	}
	if ep.isDown() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, id)
	}
	return ep, nil
}

// Endpoint is a node's attachment to the fabric: its registered memory
// regions and RPC handlers.
type Endpoint struct {
	id     NodeID
	fabric *Fabric
	verbs  *verbMetrics

	mu       sync.RWMutex
	nextReg  uint32
	regions  map[uint32]*Region
	handlers map[string]Handler
	down     bool
}

// ID returns the node id this endpoint belongs to.
func (e *Endpoint) ID() NodeID { return e.id }

// Fabric returns the fabric the endpoint is attached to.
func (e *Endpoint) Fabric() *Fabric { return e.fabric }

// Metrics returns this node's metric registry. Components running on
// the node (engine, librmem, libpfs, raft replicas) register their
// metrics here so everything one node does lands in one registry.
func (e *Endpoint) Metrics() *stat.Registry {
	return e.fabric.metrics.Node(string(e.id))
}

// Kill simulates a node crash: all regions and handlers become unreachable
// until Revive is called. Local (in-node) users of the endpoint's regions
// are unaffected; only fabric access is cut.
func (e *Endpoint) Kill() {
	e.mu.Lock()
	e.down = true
	e.mu.Unlock()
}

// Revive brings a killed node back online with its memory intact. Callers
// model cold restarts by registering fresh regions instead.
func (e *Endpoint) Revive() {
	e.mu.Lock()
	e.down = false
	e.mu.Unlock()
}

func (e *Endpoint) isDown() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.down
}

// Down reports whether the endpoint has been killed (fault detection for
// components running on the node itself, e.g. a shipper noticing its own
// NIC is gone).
func (e *Endpoint) Down() bool { return e.isDown() }
