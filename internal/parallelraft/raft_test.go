package parallelraft

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"polardb/internal/rdma"
)

// recordingSM records applied commands and checks ordering of conflicting
// entries.
type recordingSM struct {
	mu      sync.Mutex
	applied []uint64 // indexes in apply order
	cmds    map[uint64][]byte
}

func newRecordingSM() *recordingSM {
	return &recordingSM{cmds: make(map[uint64][]byte)}
}

func (s *recordingSM) Apply(index uint64, cmd []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied = append(s.applied, index)
	c := make([]byte, len(cmd))
	copy(c, cmd)
	s.cmds[index] = c
}

func (s *recordingSM) appliedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.applied)
}

func (s *recordingSM) cmd(idx uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cmds[idx]
}

type testGroup struct {
	fabric   *rdma.Fabric
	peers    []rdma.NodeID
	replicas map[rdma.NodeID]*Replica
	sms      map[rdma.NodeID]*recordingSM
	eps      map[rdma.NodeID]*rdma.Endpoint
}

func newTestGroup(t *testing.T, n int, bootstrap bool) *testGroup {
	t.Helper()
	return newTestGroupElecting(t, n, bootstrap, 60*time.Millisecond)
}

// newTestGroupElecting is newTestGroup with the given election timeout.
func newTestGroupElecting(t *testing.T, n int, bootstrap bool, election time.Duration) *testGroup {
	t.Helper()
	g := &testGroup{
		fabric:   rdma.NewFabric(rdma.TestConfig()),
		replicas: make(map[rdma.NodeID]*Replica),
		sms:      make(map[rdma.NodeID]*recordingSM),
		eps:      make(map[rdma.NodeID]*rdma.Endpoint),
	}
	for i := 0; i < n; i++ {
		g.peers = append(g.peers, rdma.NodeID(fmt.Sprintf("s%d", i)))
	}
	cfg := Config{
		Group:             "g",
		Peers:             g.peers,
		Window:            8,
		HeartbeatInterval: 10 * time.Millisecond,
		ElectionTimeout:   election,
		Bootstrap:         bootstrap,
	}
	for _, p := range g.peers {
		ep := g.fabric.MustAttach(p)
		sm := newRecordingSM()
		g.eps[p] = ep
		g.sms[p] = sm
		g.replicas[p] = NewReplica(ep, cfg, sm)
	}
	t.Cleanup(func() {
		for _, r := range g.replicas {
			r.Close()
		}
	})
	return g
}

func (g *testGroup) leader(t *testing.T) *Replica {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for _, r := range g.replicas {
			if r.Role() == Leader {
				return r
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestBootstrapLeader(t *testing.T) {
	g := newTestGroup(t, 3, true)
	l := g.replicas[g.peers[0]]
	if l.Role() != Leader {
		t.Fatalf("bootstrap peer role = %v, want leader", l.Role())
	}
	if g.replicas[g.peers[1]].Leader() != g.peers[0] {
		t.Fatalf("follower leader hint = %q", g.replicas[g.peers[1]].Leader())
	}
}

func TestProposeCommitsAndAppliesEverywhere(t *testing.T) {
	g := newTestGroup(t, 3, true)
	l := g.replicas[g.peers[0]]
	for i := 0; i < 5; i++ {
		idx, err := l.Propose([]byte{byte(i)}, []Range{{uint64(i), uint64(i + 1)}})
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if idx != uint64(i+1) {
			t.Fatalf("index = %d, want %d", idx, i+1)
		}
	}
	for _, p := range g.peers {
		p := p
		waitFor(t, "apply on "+string(p), func() bool { return g.sms[p].appliedCount() == 5 })
		for i := 0; i < 5; i++ {
			if got := g.sms[p].cmd(uint64(i + 1)); len(got) != 1 || got[0] != byte(i) {
				t.Fatalf("%s cmd[%d] = %v", p, i+1, got)
			}
		}
	}
}

// slowSM is a recordingSM whose Apply takes a while, so a proposer that
// returns before its entry is applied gets caught.
type slowSM struct{ *recordingSM }

func (s slowSM) Apply(index uint64, cmd []byte) {
	time.Sleep(20 * time.Millisecond)
	s.recordingSM.Apply(index, cmd)
}

// Propose returns only once the leader has applied the entry: a caller
// that acknowledges on its return (a page chunk acking a redo batch) must
// not answer before a read of its own state machine sees the entry.
func TestProposeReturnsAfterLeaderApply(t *testing.T) {
	fabric := rdma.NewFabric(rdma.TestConfig())
	peers := []rdma.NodeID{"s0", "s1", "s2"}
	cfg := Config{
		Group:             "g",
		Peers:             peers,
		Window:            8,
		HeartbeatInterval: 10 * time.Millisecond,
		ElectionTimeout:   time.Second,
		Bootstrap:         true,
	}
	sm := slowSM{newRecordingSM()}
	var leader *Replica
	for _, p := range peers {
		var r *Replica
		if p == peers[0] {
			r = NewReplica(fabric.MustAttach(p), cfg, sm)
			leader = r
		} else {
			r = NewReplica(fabric.MustAttach(p), cfg, newRecordingSM())
		}
		t.Cleanup(r.Close)
	}
	for i := 0; i < 3; i++ {
		idx, err := leader.Propose([]byte{byte(i)}, nil)
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if got := sm.cmd(idx); len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("Propose %d returned before the leader applied entry %d (leader has %v)", i, idx, got)
		}
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	g := newTestGroup(t, 3, true)
	f := g.replicas[g.peers[1]]
	if _, err := f.Propose([]byte{1}, nil); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestCommitSurvivesOneFollowerDown(t *testing.T) {
	g := newTestGroup(t, 3, true)
	l := g.replicas[g.peers[0]]
	g.eps[g.peers[2]].Kill()

	idx, err := l.Propose([]byte("x"), nil)
	if err != nil {
		t.Fatalf("propose with one follower down: %v", err)
	}
	if idx != 1 {
		t.Fatalf("idx = %d", idx)
	}
	// The dead follower revives and catches up through heartbeats.
	g.eps[g.peers[2]].Revive()
	waitFor(t, "revived follower catch-up", func() bool {
		return g.sms[g.peers[2]].appliedCount() == 1
	})
}

func TestLeaderFailureElectsNewLeaderAndPreservesCommits(t *testing.T) {
	g := newTestGroup(t, 3, true)
	l := g.replicas[g.peers[0]]
	for i := 0; i < 3; i++ {
		if _, err := l.Propose([]byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	g.eps[g.peers[0]].Kill()

	var newLeader *Replica
	waitFor(t, "new leader", func() bool {
		for _, p := range g.peers[1:] {
			if g.replicas[p].Role() == Leader {
				newLeader = g.replicas[p]
				return true
			}
		}
		return false
	})
	if newLeader.Term() <= 1 {
		t.Fatalf("new term = %d, want > 1", newLeader.Term())
	}
	// Committed entries are preserved and new proposals continue after them.
	idx, err := newLeader.Propose([]byte("after"), nil)
	if err != nil {
		t.Fatalf("propose after failover: %v", err)
	}
	if idx != 4 {
		t.Fatalf("post-failover index = %d, want 4", idx)
	}
	waitFor(t, "new leader applies all", func() bool {
		return g.sms[rdma.NodeID(newLeader.ep.ID())].appliedCount() == 4
	})
	// Old commands intact on the new leader.
	for i := 0; i < 3; i++ {
		if got := g.sms[newLeader.ep.ID()].cmd(uint64(i + 1)); len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("cmd[%d] lost after failover: %v", i+1, got)
		}
	}
}

func TestOldLeaderStepsDownOnRevive(t *testing.T) {
	g := newTestGroup(t, 3, true)
	old := g.replicas[g.peers[0]]
	if _, err := old.Propose([]byte{1}, nil); err != nil {
		t.Fatal(err)
	}
	g.eps[g.peers[0]].Kill()
	waitFor(t, "new leader", func() bool {
		for _, p := range g.peers[1:] {
			if g.replicas[p].Role() == Leader {
				return true
			}
		}
		return false
	})
	g.eps[g.peers[0]].Revive()
	waitFor(t, "old leader steps down", func() bool { return old.Role() == Follower })
}

func TestOutOfOrderApplyNonConflicting(t *testing.T) {
	// Directly exercise the apply rules: feed a follower entries out of
	// order with disjoint ranges; it must apply them without waiting.
	f := rdma.NewFabric(rdma.TestConfig())
	peers := []rdma.NodeID{"l", "f1", "f2"}
	cfg := Config{Group: "g", Peers: peers, Window: 8,
		HeartbeatInterval: time.Hour, ElectionTimeout: time.Hour, Bootstrap: true}
	epL := f.MustAttach("l")
	epF := f.MustAttach("f1")
	f.MustAttach("f2")
	l := NewReplica(epL, cfg, newRecordingSM())
	smF := newRecordingSM()
	fr := NewReplica(epF, cfg, smF)
	defer l.Close()
	defer fr.Close()

	// Build three entries on the leader without replicating (peers ignore).
	// Simulate: follower receives entry 3 first (hole at 1,2), disjoint
	// ranges; then 1 and 2.
	mk := func(idx uint64, lb [][]Range) *Entry {
		return &Entry{Index: idx, Term: 1, Ranges: []Range{{idx * 10, idx*10 + 1}},
			Cmd: []byte{byte(idx)}, LookBehind: lb}
	}
	e1 := mk(1, nil)
	e2 := mk(2, [][]Range{e1.Ranges})
	e3 := mk(3, [][]Range{e1.Ranges, e2.Ranges})

	send := func(e *Entry, commitPrefix uint64, extra []uint64) {
		// Emulate leader append RPC directly.
		req := buildTestAppend(1, "l", commitPrefix, 3, extra, e)
		if _, err := epL.Call("f1", "raft.g.append", req); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Entry 3 arrives first, already committed (out-of-order commit).
	send(e3, 0, []uint64{3})
	waitFor(t, "oo apply of 3", func() bool { return smF.appliedCount() == 1 })
	if smF.applied[0] != 3 {
		t.Fatalf("applied %v, want [3]", smF.applied)
	}
	send(e1, 1, nil)
	send(e2, 3, nil)
	waitFor(t, "apply all", func() bool { return smF.appliedCount() == 3 })
	if fr.ApplyPrefix() != 3 {
		t.Fatalf("applyPrefix = %d, want 3", fr.ApplyPrefix())
	}
}

func TestConflictingEntriesApplyInOrder(t *testing.T) {
	f := rdma.NewFabric(rdma.TestConfig())
	peers := []rdma.NodeID{"l", "f1", "f2"}
	cfg := Config{Group: "g", Peers: peers, Window: 8,
		HeartbeatInterval: time.Hour, ElectionTimeout: time.Hour, Bootstrap: true}
	epL := f.MustAttach("l")
	epF := f.MustAttach("f1")
	f.MustAttach("f2")
	l := NewReplica(epL, cfg, newRecordingSM())
	smF := newRecordingSM()
	fr := NewReplica(epF, cfg, smF)
	defer l.Close()
	defer fr.Close()

	overlap := []Range{{100, 101}}
	e1 := &Entry{Index: 1, Term: 1, Ranges: overlap, Cmd: []byte{1}}
	e2 := &Entry{Index: 2, Term: 1, Ranges: overlap, Cmd: []byte{2},
		LookBehind: [][]Range{overlap}}

	// Entry 2 arrives first and is marked committed; it must NOT apply
	// until entry 1 (conflicting) has been applied.
	req := buildTestAppend(1, "l", 0, 2, []uint64{2}, e2)
	if _, err := epL.Call("f1", "raft.g.append", req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if n := smF.appliedCount(); n != 0 {
		t.Fatalf("conflicting entry applied before predecessor (%d applied)", n)
	}
	req = buildTestAppend(1, "l", 2, 2, nil, e1)
	if _, err := epL.Call("f1", "raft.g.append", req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both applied", func() bool { return smF.appliedCount() == 2 })
	smF.mu.Lock()
	defer smF.mu.Unlock()
	if smF.applied[0] != 1 || smF.applied[1] != 2 {
		t.Fatalf("apply order %v, want [1 2]", smF.applied)
	}
	_ = fr
}

// buildTestAppend fabricates an append RPC payload that truncates nothing.
func buildTestAppend(term uint64, leader rdma.NodeID, commitPrefix, maxSeen uint64, extra []uint64, e *Entry) []byte {
	return marshalAppendReq(term, leader, commitPrefix, maxSeen, 0, extra, e)
}

func TestConcurrentProposals(t *testing.T) {
	g := newTestGroup(t, 3, true)
	l := g.replicas[g.peers[0]]
	const n = 40
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := l.Propose([]byte{byte(i)}, []Range{{uint64(i), uint64(i + 1)}})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
	}
	for _, p := range g.peers {
		p := p
		waitFor(t, "apply on "+string(p), func() bool { return g.sms[p].appliedCount() == n })
	}
	// All replicas applied the same multiset of commands.
	for i := uint64(1); i <= n; i++ {
		ref := g.sms[g.peers[0]].cmd(i)
		for _, p := range g.peers[1:] {
			if got := g.sms[p].cmd(i); len(got) != len(ref) || (len(got) > 0 && got[0] != ref[0]) {
				t.Fatalf("divergence at %d: %v vs %v", i, got, ref)
			}
		}
	}
}

func TestRangeOverlap(t *testing.T) {
	cases := []struct {
		a, b Range
		want bool
	}{
		{Range{0, 10}, Range{10, 20}, false},
		{Range{0, 10}, Range{9, 20}, true},
		{Range{5, 6}, Range{5, 6}, true},
		{Range{0, 1}, Range{2, 3}, false},
	}
	for _, c := range cases {
		if got := c.a.overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v,%v", c.a, c.b)
		}
	}
}

// Property: overlaps is symmetric and consistent with an arithmetic oracle.
func TestRangeOverlapProperty(t *testing.T) {
	prop := func(a1, a2, b1, b2 uint32) bool {
		a := Range{uint64(min(a1, a2)), uint64(max(a1, a2) + 1)}
		b := Range{uint64(min(b1, b2)), uint64(max(b1, b2) + 1)}
		oracle := !(a.End <= b.Start || b.End <= a.Start)
		return a.overlaps(b) == oracle && b.overlaps(a) == oracle
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntryMarshalRoundTrip(t *testing.T) {
	e := Entry{
		Index:      42,
		Term:       7,
		Ranges:     []Range{{1, 2}, {9, 12}},
		Cmd:        []byte("payload"),
		LookBehind: [][]Range{{{0, 1}}, {{3, 4}, {5, 6}}},
	}
	var out Entry
	roundTripEntry(&e, &out)
	if out.Index != e.Index || out.Term != e.Term || string(out.Cmd) != string(e.Cmd) {
		t.Fatalf("round trip: %+v", out)
	}
	if len(out.Ranges) != 2 || out.Ranges[1] != (Range{9, 12}) {
		t.Fatalf("ranges: %+v", out.Ranges)
	}
	if len(out.LookBehind) != 2 || len(out.LookBehind[1]) != 2 {
		t.Fatalf("lookbehind: %+v", out.LookBehind)
	}
}

func goldenEntry() *Entry {
	return &Entry{
		Index:      42,
		Term:       7,
		Ranges:     []Range{{1, 2}, {9, 12}},
		Cmd:        []byte("payload"),
		LookBehind: [][]Range{{{0, 1}}, {{3, 4}, {5, 6}}},
	}
}

// TestAppendRequestGolden pins the append and heartbeat request layouts
// and checks that each is encoded into a buffer of exactly its size.
func TestAppendRequestGolden(t *testing.T) {
	const head = "0700000000000000" + "03000000" + "737430" + // term, leader "st0"
		"0300000000000000" + "0900000000000000" + "0200000000000000" // commit prefix, max seen, truncate to
	const entry = "2a00000000000000" + "0700000000000000" + // index, term
		"0200" + "0100000000000000" + "0200000000000000" + "0900000000000000" + "0c00000000000000" + // ranges
		"07000000" + "7061796c6f6164" + // cmd
		"0200" + "0100" + "0000000000000000" + "0100000000000000" + // look-behind
		"0200" + "0300000000000000" + "0400000000000000" + "0500000000000000" + "0600000000000000"
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"append", marshalAppendReq(7, "st0", 3, 9, 2, []uint64{5, 6}, goldenEntry()),
			head + "0200" + "0500000000000000" + "0600000000000000" + "01" + entry},
		{"heartbeat", marshalAppendReq(7, "st0", 3, 9, 2, nil, nil), head + "0000" + "00"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		if cap(c.got) != len(c.got) {
			t.Errorf("%s: buffer of %d bytes for %d", c.name, cap(c.got), len(c.got))
		}
	}
}

// FuzzEntryUnmarshal feeds the append request decoder, entry included. No
// input panics it; whatever it accepts re-encodes to the bytes it read,
// so it read nothing from outside the input; no decoded range list
// reaches into the next; and the command is the entry's own copy.
func FuzzEntryUnmarshal(f *testing.F) {
	f.Add(marshalAppendReq(7, "st0", 3, 9, 2, []uint64{5, 6}, goldenEntry()))
	f.Add(marshalAppendReq(7, "st0", 3, 9, 2, nil, nil))
	f.Add(marshalAppendReq(1, "a", 0, 0, 0, nil, &Entry{Index: 1, Term: 1, Ranges: FullRange}))
	f.Fuzz(func(t *testing.T, data []byte) {
		req := bytes.Clone(data)
		a, err := unmarshalAppendReq(req)
		if err != nil {
			return
		}
		enc := marshalAppendReq(a.term, a.leader, a.commitPrefix, a.maxSeen, a.truncTo, a.extra, a.entry)
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("decoded request re-encodes to %x, not a prefix of the input %x", enc, data)
		}
		e := a.entry
		if e == nil {
			return
		}
		for i, rs := range append([][]Range{e.Ranges}, e.LookBehind...) {
			if cap(rs) != len(rs) {
				t.Fatalf("range list %d: %d ranges, capacity %d", i, len(rs), cap(rs))
			}
		}
		if len(e.Cmd) > 0 {
			cmd := string(e.Cmd)
			clear(req)
			if string(e.Cmd) != cmd {
				t.Fatal("the entry's command aliases the request")
			}
		}
	})
}
