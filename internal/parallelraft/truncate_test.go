package parallelraft

import (
	"sync"
	"testing"
	"time"

	"polardb/internal/rdma"
)

// proposeMany commits n one-byte commands on l from 8 proposers, each on
// its own range so that they commit and apply out of order.
func proposeMany(t *testing.T, l *Replica, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				if _, err := l.Propose([]byte{byte(i)}, []Range{{uint64(w), uint64(w + 1)}}); err != nil {
					t.Errorf("propose: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestLogTruncation follows a group's retained log through the four
// situations truncation has to get right: steady state, a replica down, its
// return, and a leader change.
func TestLogTruncation(t *testing.T) {
	g := newTestGroup(t, 3, true)
	window := 8 // newTestGroup's Config.Window
	l := g.replicas[g.peers[0]]
	settle := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	bounded := func(peers ...rdma.NodeID) func() bool {
		return func() bool {
			for _, p := range peers {
				if n, _ := g.replicas[p].logSpan(); n > 2*window {
					return false
				}
			}
			return true
		}
	}
	appliedAll := func(p rdma.NodeID, want int) func() bool {
		return func() bool { return g.sms[p].appliedCount() == want }
	}

	// Steady state: every replica forgets what all three have applied.
	proposeMany(t, l, 5000)
	settle("bounded logs after 5000 proposals", bounded(g.peers...))
	before := l.ep.Metrics().Snapshot().Counter("raft.log.truncated")
	if before < 5000-uint64(2*window) {
		t.Fatalf("raft.log.truncated = %d on the leader after 5000 proposals", before)
	}

	// One follower down: commits continue, and the two live replicas keep
	// everything above the dead one's apply prefix for its return.
	dead := g.peers[2]
	g.eps[dead].Kill()
	proposeMany(t, l, 500)
	settle("live follower applies", appliedAll(g.peers[1], 5500))
	time.Sleep(5 * g.replicas[dead].cfg.HeartbeatInterval) // heartbeats that would truncate, if anything allowed it
	deadApplied := g.replicas[dead].ApplyPrefix()
	if deadApplied >= 5500 {
		t.Fatalf("dead follower applied %d entries", deadApplied)
	}
	for _, p := range g.peers[:2] {
		if n, lowest := g.replicas[p].logSpan(); lowest > deadApplied+1 || n < 5500-int(deadApplied) {
			t.Fatalf("%s retains %d entries from index %d on; the dead follower has applied only %d", p, n, lowest, deadApplied)
		}
	}

	// It returns: catch-up is served from the retained entries, then
	// truncation resumes.
	g.eps[dead].Revive()
	settle("revived follower catch-up", appliedAll(dead, 5500))
	settle("bounded logs after the revival", bounded(g.peers...))

	// Leader change after truncation: the new leader's merge stage has
	// nothing to fetch below its apply prefix, and it serves.
	g.eps[g.peers[0]].Kill()
	var nl *Replica
	settle("new leader", func() bool {
		for _, p := range g.peers[1:] {
			if g.replicas[p].Role() == Leader {
				nl = g.replicas[p]
				return true
			}
		}
		return false
	})
	proposeMany(t, nl, 200)
	for _, p := range g.peers[1:] {
		settle("apply under the new leader on "+string(p), appliedAll(p, 5700))
	}
	// The old leader comes back as a follower; truncTo did not go backwards,
	// and the logs shrink again once it has caught up.
	g.eps[g.peers[0]].Revive()
	settle("old leader catch-up", appliedAll(g.peers[0], 5700))
	settle("bounded logs under the new leader", bounded(g.peers...))

	// Nothing was applied twice or skipped anywhere.
	for _, p := range g.peers {
		sm := g.sms[p]
		sm.mu.Lock()
		seen := make(map[uint64]bool, len(sm.applied))
		for _, idx := range sm.applied {
			if seen[idx] {
				t.Errorf("%s applied index %d twice", p, idx)
			}
			seen[idx] = true
		}
		sm.mu.Unlock()
	}
}
