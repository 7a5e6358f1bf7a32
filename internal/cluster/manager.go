package cluster

import (
	"fmt"
	"os"
	"sync"
	"time"

	"polardb/internal/rdma"
)

// Manager is the Cluster Manager (CM, §5.1): it heartbeats the RW node
// and drives RO promotion on failure, and orchestrates planned switches
// (version upgrades, migrations) with transaction adoption.
type Manager struct {
	c *Cluster

	mu       sync.Mutex
	stopCh   chan struct{}
	wg       sync.WaitGroup
	running  bool
	switchMu sync.Mutex // serializes failovers

	// Events receives human-readable CM events (tests, CLI).
	Events chan string
}

func newManager(c *Cluster) *Manager {
	return &Manager{c: c, Events: make(chan string, 64)}
}

func (m *Manager) event(format string, args ...any) {
	select {
	case m.Events <- fmt.Sprintf(format, args...):
	default:
	}
}

// Start begins heartbeating the RW node.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	m.running = true
	m.stopCh = make(chan struct{})
	m.wg.Add(1)
	go m.heartbeatLoop(m.stopCh)
}

// Stop halts heartbeating.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	close(m.stopCh)
	m.mu.Unlock()
	m.wg.Wait()
}

// cmNode is the CM's own fabric endpoint, lazily attached.
func (m *Manager) cmEP() *rdma.Endpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.c.Fabric.MustAttachOrGet("cm")
	return ep
}

func (m *Manager) heartbeatLoop(stop chan struct{}) {
	defer m.wg.Done()
	ep := m.cmEP()
	misses := 0
	for {
		select {
		case <-stop:
			return
		case <-time.After(m.c.cfg.HeartbeatInterval):
		}
		rw := m.c.Proxy.rwNode()
		if rw == nil {
			continue
		}
		// An RPC on purpose: the heartbeat must exercise the RW's dispatch
		// loop to prove liveness; a one-sided read would succeed against a
		// wedged process.
		_, err := ep.CallTimeout(rw.ID, "cm.ping", nil, m.c.cfg.HeartbeatInterval)
		if err != nil {
			misses++
			if misses >= m.c.cfg.HeartbeatMisses {
				m.event("rw %s unresponsive (%d misses); initiating failover", rw.ID, misses)
				if err := m.Failover(false); err != nil {
					m.event("failover failed: %v", err)
				}
				misses = 0
			}
			continue
		}
		misses = 0
	}
}

// Failover replaces the RW node with the first RO (§5.1). planned runs
// the clean handover protocol (§3.5): the proxy pauses sessions, the old
// RW flushes its state to shared memory, and in-flight transactions are
// adopted by the new RW so sessions resume from their savepoints.
func (m *Manager) Failover(planned bool) error {
	return m.failover(planned, false)
}

// FailoverTraditional is Failover(false) with the single-node redo-replay
// recovery baseline ("w/o page mat.", Figure 9).
func (m *Manager) FailoverTraditional() error {
	return m.failover(false, true)
}

func (m *Manager) failover(planned, traditional bool) error {
	m.switchMu.Lock()
	defer m.switchMu.Unlock()
	trace := func(string) {}
	if os.Getenv("POLARDB_TRACE_RECOVERY") != "" {
		t0 := time.Now()
		trace = func(step string) {
			fmt.Fprintf(os.Stderr, "failover: %-20s +%8.1fms\n", step, time.Since(t0).Seconds()*1000)
		}
	}
	c := m.c
	if len(c.ROs) == 0 {
		return fmt.Errorf("cluster: no RO node available for promotion")
	}
	old := c.Proxy.rwNode()

	// Pause the proxy: drains in-flight statements, holds new ones.
	c.Proxy.gate.Lock()
	defer c.Proxy.gate.Unlock()
	trace("gate acquired")

	if planned {
		// Old RW cleans up: sync redo to page chunks, write dirty pages to
		// shared memory, release PL latches (§5.1 "planned node down").
		if err := old.Engine.PlannedHandover(); err != nil {
			return err
		}
	} else {
		// Steps 1-2: fence the old RW (its NIC is cut both ways) so it can
		// no longer write to memory or storage nodes. Its engine is torn
		// down in the background — promotion must not wait for a dead
		// node's timeouts.
		old.EP.Kill()
		go old.Engine.Close()
	}

	trace("old node handled")
	target := c.ROs[0]
	rest := append([]*DBNode(nil), c.ROs[1:]...)
	if err := target.promoteToRW(old.ID, planned, traditional); err != nil {
		return err
	}
	trace("promoted")
	c.RW = target
	c.ROs = rest
	for _, ro := range rest {
		//polarvet:allow fabriccost one per surviving RO node: each repoints itself and sends its own queued unregisters, already batched into one round trip
		ro.Engine.SwitchRW(target.ID, target.Engine.CTSRegionID())
	}
	c.Proxy.setNodes(target, rest)
	var adopted = target.Engine.Adopted()
	if !planned {
		adopted = nil
	}
	c.Proxy.rebindAll(adopted)
	m.event("promoted %s to RW (planned=%v, adopted=%d txns)", target.ID, planned, len(adopted))
	return nil
}

// SwitchOver performs a planned RW switch (auto-scaling migration,
// version upgrade): the paper's transparent switching with savepoints.
func (m *Manager) SwitchOver() error { return m.Failover(true) }
