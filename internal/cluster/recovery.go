package cluster

import (
	"errors"
	"fmt"
	"sync"
)

// FailoverHome handles a memory home-node crash (§5.2): the slave home —
// which received every metadata mutation synchronously — is promoted, and
// every database node repoints its pool client at it. Pages survive on
// the slab nodes; PL latch state dies with the master (recovery releases
// latches lazily) and PIB bits are conservatively stale.
func (c *Cluster) FailoverHome() error {
	if c.SlaveHome == nil {
		return fmt.Errorf("cluster: no slave home configured")
	}
	c.Proxy.gate.Lock()
	defer c.Proxy.gate.Unlock()

	c.Home.Endpoint().Kill()
	c.Home.Close()
	c.SlaveHome.Promote()
	c.Home = c.SlaveHome
	c.SlaveHome = nil
	newHome := c.Home.Endpoint().ID()
	c.MemNode = newHome

	repoint := func(n *DBNode) {
		if n.Pool == nil {
			return
		}
		// Local copies keep working; remote addresses must be re-learned
		// (the promoted home marked every PIB stale, so first accesses
		// re-validate against the RW or storage).
		n.Engine.Cache().EvictAll()
		n.Pool.SwitchHome(newHome)
	}
	repoint(c.RW)
	for _, ro := range c.ROs {
		repoint(ro)
	}
	c.CM.event("promoted slave home %s", newHome)
	return nil
}

// FullRestart implements cluster recovery (§5.3): when every home replica
// is lost, all database and memory state restarts from a cleared state
// and is rebuilt from storage. Remote memory comes back empty (the cold
// cache problem the paper notes), open transactions are rolled back by
// recovery, and service resumes on the same node ids.
func (c *Cluster) FullRestart() error {
	c.Proxy.gate.Lock()
	defer c.Proxy.gate.Unlock()

	// Stop every database node and the memory control plane.
	oldRW := c.RW
	oldRW.Engine.Close()
	for _, ro := range c.ROs {
		ro.Engine.Close()
	}
	if c.Home != nil {
		c.Home.Close()
	}
	if c.SlaveHome != nil {
		c.SlaveHome.Close()
		c.SlaveHome = nil
	}

	// Fresh memory pool on the same memory node (handlers replace the old
	// ones; slab data is abandoned and rebuilt on demand from storage).
	if !c.cfg.NoRemoteMemory {
		if err := c.startPool(""); err != nil {
			return err
		}
	}

	// Rebuild every database node against the fresh pool. The RW recovers
	// from storage alone: parallel REDO + undo scan; the remote memory pool
	// is empty, so this is the cold-cache path.
	if err := oldRW.restart(nil); err != nil {
		return err
	}
	if _, err := oldRW.Engine.Recover("", false); err != nil {
		return err
	}
	// The ROs restart side by side: each connects itself to the new home,
	// one round trip, and none waits on another.
	errs := make([]error, len(c.ROs))
	var wg sync.WaitGroup
	for i, ro := range c.ROs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ro.restart(oldRW)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	c.Proxy.setNodes(c.RW, c.ROs)
	c.Proxy.rebindAll(nil) // every open transaction is lost
	c.CM.event("cluster recovery complete (cold caches)")
	return nil
}
