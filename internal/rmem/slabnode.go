package rmem

import (
	"fmt"
	"sync"

	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// SlabNode serves slabs: contiguous Page Arrays registered with the RDMA
// NIC at boot so database nodes can read and write cached pages with
// one-sided verbs, never involving this node's CPU on the data path.
type SlabNode struct {
	ep *rdma.Endpoint

	mu    sync.Mutex
	slabs map[uint32]*rdma.Region
}

// NewSlabNode starts the slab service on ep. The home node calls its
// create/free RPCs when the pool grows or shrinks.
func NewSlabNode(ep *rdma.Endpoint) *SlabNode {
	n := &SlabNode{ep: ep, slabs: make(map[uint32]*rdma.Region)}
	ep.RegisterHandler(method("slab.create"), n.handleCreate)
	ep.RegisterHandler(method("slab.free"), n.handleFree)
	ep.RegisterHandler(method("slab.ping"), func(rdma.NodeID, []byte) ([]byte, error) {
		return []byte{1}, nil
	})
	return n
}

// Endpoint returns the node's fabric endpoint.
func (n *SlabNode) Endpoint() *rdma.Endpoint { return n.ep }

// handleCreate allocates a Page Array of the requested page count and
// registers it with the NIC; the response carries the region id.
func (n *SlabNode) handleCreate(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	pages := int(rd.U32())
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if pages <= 0 {
		return nil, fmt.Errorf("rmem: a slab of %d pages", pages)
	}
	r := n.ep.RegisterRegion(pages * types.PageSize)
	n.mu.Lock()
	n.slabs[r.ID()] = r
	n.mu.Unlock()
	w := wire.NewWriter(8)
	w.U32(r.ID())
	w.U32(uint32(pages))
	return w.Bytes(), nil
}

// handleFree releases a slab's memory and deregisters it from the NIC.
func (n *SlabNode) handleFree(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	id := rd.U32()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	delete(n.slabs, id)
	n.mu.Unlock()
	n.ep.DeregisterRegion(id)
	return nil, nil
}
