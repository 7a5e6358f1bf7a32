package cluster

import (
	"fmt"

	"polardb/internal/engine"
	"polardb/internal/polarfs"
	"polardb/internal/rdma"
	"polardb/internal/rmem"
	"polardb/internal/types"
)

// DBNode is a database node (RW or RO): an engine plus its substrate
// clients, rebuildable in place when the node changes role.
type DBNode struct {
	ID       rdma.NodeID
	EP       *rdma.Endpoint
	PFS      *polarfs.Client
	Pool     *rmem.Pool
	Engine   *engine.Engine
	ReadOnly bool

	cluster *Cluster
}

// newDBNode attaches a database node to the fabric and starts it: an RO
// attached to rw, or the RW when rw is nil.
func (c *Cluster) newDBNode(id rdma.NodeID, rw *DBNode) (*DBNode, error) {
	ep := c.Fabric.MustAttach(id)
	n := &DBNode{ID: id, EP: ep, cluster: c, PFS: polarfs.NewClient(ep, c.Storage.Cfg, c.Storage.Peers)}
	ep.RegisterHandler("cm.ping", func(rdma.NodeID, []byte) ([]byte, error) { return []byte{1}, nil })
	if err := n.restart(rw); err != nil {
		return nil, err
	}
	return n, nil
}

// restart connects the node to the cluster's current memory pool and gives
// it a fresh engine: an RO attached to rw, or the RW when rw is nil.
func (n *DBNode) restart(rw *DBNode) error {
	c := n.cluster
	if !c.cfg.NoRemoteMemory {
		pool, err := rmem.NewPool(n.EP, c.memCfg, c.MemNode)
		if err != nil {
			return err
		}
		n.Pool = pool
	}
	e, err := n.newEngine(rw)
	if err != nil {
		return err
	}
	n.Engine, n.ReadOnly = e, rw != nil
	return nil
}

// newEngine builds an engine on the node's endpoint and substrate clients:
// an RO attached to rw, or the RW when rw is nil. This is the one place
// the cluster's settings become an engine.Config.
func (n *DBNode) newEngine(rw *DBNode) (*engine.Engine, error) {
	c := n.cluster.cfg
	cfg := engine.Config{
		LocalCachePages:    c.LocalCachePages,
		ROMode:             c.ROMode,
		CheckpointInterval: c.CheckpointInterval,
		LockWait:           c.LockWait,
	}
	deps := engine.Deps{EP: n.EP, PFS: n.PFS, Pool: n.Pool}
	if rw == nil {
		return engine.NewRW(deps, cfg)
	}
	cfg.RWNode, cfg.CTSRegionID = rw.ID, rw.Engine.CTSRegionID()
	return engine.NewRO(deps, cfg)
}

// promoteToRW turns this RO node into the RW (§5.1 step 2): the RO's
// cached pool references are dropped — the evictions leave its librmem
// entries idle, one round trip gives them back — the RO engine is torn
// down and an RW engine is
// built on the same endpoint, substrate clients and local state, then runs
// recovery. traditional selects the single-node redo replay baseline
// instead of parallel REDO. A planned switch returns the transactions the
// new RW adopted, keyed by transaction id.
func (n *DBNode) promoteToRW(oldRW rdma.NodeID, planned, traditional bool) (map[types.TrxID]*engine.Txn, error) {
	if !n.ReadOnly {
		return nil, fmt.Errorf("cluster: %s is already the RW", n.ID)
	}
	n.Engine.Cache().EvictAll()
	if n.Pool != nil {
		if err := n.Pool.Flush(); err != nil {
			return nil, err
		}
	}
	n.Engine.Close()
	e, err := n.newEngine(nil)
	if err != nil {
		return nil, err
	}
	var adopted map[types.TrxID]*engine.Txn
	if traditional {
		_, err = e.RecoverTraditional(oldRW)
	} else {
		adopted, err = e.Recover(oldRW, planned)
	}
	if err != nil {
		return nil, err
	}
	n.Engine = e
	n.ReadOnly = false
	return adopted, nil
}
