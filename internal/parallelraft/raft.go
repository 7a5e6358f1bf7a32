// Package parallelraft implements ParallelRaft, the consensus protocol
// PolarFS uses to replicate every chunk across three storage nodes (§2.1
// of the PolarDB Serverless paper, detailed in the PolarFS paper).
//
// ParallelRaft relaxes classic Raft in three ways, all reproduced here:
//
//   - Out-of-order acknowledgement: a follower acks an entry as soon as it
//     arrives, even if earlier entries are missing (holes are allowed).
//   - Out-of-order commit: the leader commits an entry once a majority has
//     acked it, provided it does not conflict with any earlier uncommitted
//     entry. Each entry carries the write ranges (here: page extents) it
//     touches; a look-behind window bounds how far back conflicts can live.
//   - Out-of-order apply: replicas apply a committed entry as soon as every
//     conflicting predecessor within the window has been applied. Entries
//     carry a look-behind buffer with the ranges of their N predecessors so
//     a replica with holes can still prove non-conflict.
//
// Leader election is Raft-style (terms, majority votes, log-recency check
// on the highest index). A newly elected leader runs a merge stage: it
// fetches entries it is missing from peers and fills truly-lost holes with
// no-ops before serving.
package parallelraft

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/stat"
	"polardb/internal/wire"
)

// Errors returned by Propose and the client.
var (
	ErrNotLeader = errors.New("parallelraft: not leader")
	ErrShutdown  = errors.New("parallelraft: replica shut down")
	ErrNoLeader  = errors.New("parallelraft: no leader reachable")
)

// Range is a half-open interval [Start, End) of logical block/page numbers
// an entry writes. Two entries conflict iff any of their ranges overlap.
type Range struct {
	Start, End uint64
}

func (r Range) overlaps(o Range) bool { return r.Start < o.End && o.Start < r.End }

func rangesConflict(a, b []Range) bool {
	for _, x := range a {
		for _, y := range b {
			if x.overlaps(y) {
				return true
			}
		}
	}
	return false
}

// FullRange marks an entry as conflicting with everything (forces in-order
// commit and apply), used for append-only log chunks.
var FullRange = []Range{{Start: 0, End: ^uint64(0)}}

// Entry is a replicated log entry.
type Entry struct {
	Index  uint64
	Term   uint64
	Ranges []Range
	Cmd    []byte // nil for no-op fillers
	// LookBehind holds the Ranges of entries Index-len(LookBehind)..Index-1,
	// oldest first, so a replica with holes can conflict-check them.
	LookBehind [][]Range
}

func marshalRanges(w *wire.Writer, rs []Range) {
	w.U16(uint16(len(rs)))
	for _, r := range rs {
		w.U64(r.Start)
		w.U64(r.End)
	}
}

func rangesSize(rs []Range) int { return 2 + 16*len(rs) }

// skipRanges reads past one range list and returns its length.
func skipRanges(rd *wire.Reader) int {
	n := int(rd.U16())
	for i := 0; i < 2*n && rd.Err() == nil; i++ {
		rd.U64()
	}
	return n
}

// readRanges decodes one range list into the front of all and returns it
// and the rest of all.
func readRanges(rd *wire.Reader, all []Range) (rs, rest []Range) {
	n := int(rd.U16())
	rs, rest = all[:n:n], all[n:]
	for i := range rs {
		rs[i].Start = rd.U64()
		rs[i].End = rd.U64()
	}
	return rs, rest
}

// size returns the entry's wire size.
func (e *Entry) size() int {
	n := 8 + 8 + rangesSize(e.Ranges) + 4 + len(e.Cmd) + 2
	for _, rs := range e.LookBehind {
		n += rangesSize(rs)
	}
	return n
}

func (e *Entry) marshal(w *wire.Writer) {
	w.U64(e.Index)
	w.U64(e.Term)
	marshalRanges(w, e.Ranges)
	w.Bytes32(e.Cmd)
	w.U16(uint16(len(e.LookBehind)))
	for _, rs := range e.LookBehind {
		marshalRanges(w, rs)
	}
}

// unmarshal decodes an entry. Cmd is a copy: the entry outlives the
// request it came in. The entry's ranges and its look-behind's Window
// lists share one array, sized by a first pass over a copy of the reader.
func (e *Entry) unmarshal(rd *wire.Reader) {
	e.Index = rd.U64()
	e.Term = rd.U64()
	peek := *rd
	total := skipRanges(&peek)
	peek.View32()
	n := int(peek.U16())
	for i := 0; i < n && peek.Err() == nil; i++ {
		total += skipRanges(&peek)
	}
	if peek.Err() != nil {
		*rd = peek
		return
	}
	all := make([]Range, total)
	e.Ranges, all = readRanges(rd, all)
	e.Cmd = rd.Bytes32()
	rd.U16()
	e.LookBehind = make([][]Range, n)
	for i := range e.LookBehind {
		e.LookBehind[i], all = readRanges(rd, all)
	}
}

// StateMachine receives committed commands. Apply may be invoked out of
// order for entries whose Ranges do not conflict; conflicting entries are
// always applied in index order. Apply is never invoked twice for an index.
type StateMachine interface {
	Apply(index uint64, cmd []byte)
}

// Role is a replica's current role.
type Role int

// Replica roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Config parameterizes a replica group.
type Config struct {
	// Group names the raft group; RPC methods are namespaced by it.
	Group string
	// Peers lists all replica node ids (including this one).
	Peers []rdma.NodeID
	// Window is the look-behind window: the maximum number of in-flight
	// (uncommitted) entries, and how far back conflicts are tracked.
	Window int
	// HeartbeatInterval is the leader's heartbeat period.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower timeout; the effective timeout
	// is randomized in [T, 2T).
	ElectionTimeout time.Duration
	// Bootstrap, when set, makes the replica whose id equals Peers[0] start
	// as leader of term 1 immediately, skipping the initial election. All
	// production wiring in this repository bootstraps groups this way and
	// lets elections take over on failure.
	Bootstrap bool
}

func (c *Config) applyDefaults() {
	if c.Window == 0 {
		c.Window = 16
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.ElectionTimeout == 0 {
		c.ElectionTimeout = 150 * time.Millisecond
	}
}

type proposeWaiter struct {
	ch chan error
}

// Replica is one member of a ParallelRaft group.
type Replica struct {
	cfg    Config
	ep     *rdma.Endpoint
	sm     StateMachine
	others []rdma.NodeID // cfg.Peers without this replica

	mu       sync.Mutex
	applyMu  sync.Mutex // serializes checkApply scans (not Apply calls themselves)
	term     uint64
	votedFor rdma.NodeID
	role     Role
	leader   rdma.NodeID

	log          map[uint64]*Entry
	maxIndex     uint64 // highest index present locally
	maxSeen      uint64 // highest index known to exist cluster-wide
	committed    map[uint64]bool
	commitPrefix uint64 // all indexes <= this are committed
	applied      map[uint64]bool
	applyPrefix  uint64 // all indexes <= this are applied

	// Log truncation. The leader learns each peer's applyPrefix from its
	// append replies and sends truncTo, the lowest of them, with every
	// append; each replica then drops what it has applied itself, up to
	// truncTo less the look-behind window (see truncateLocked).
	truncTo     uint64                 // every replica has applied all indexes <= this; never decreases
	logFloor    uint64                 // all indexes <= this have been dropped from log
	peerApplied map[rdma.NodeID]uint64 // leader only: last applyPrefix each peer reported

	acks    map[uint64]map[rdma.NodeID]bool // leader only
	waiters map[uint64][]proposeWaiter      // leader only

	lastHeartbeat time.Time
	inflightCond  *sync.Cond

	closed  bool
	closeCh chan struct{}
	wg      sync.WaitGroup
	rng     *rand.Rand

	metPropose   *stat.Counter   // entries proposed on this replica
	metCommit    *stat.Histogram // propose-to-commit-and-local-apply latency
	metAppend    *stat.Counter   // follower append RPCs served
	metTruncated *stat.Counter   // log entries dropped by truncation
}

// NewReplica creates a replica attached to ep and starts its timers.
// The state machine receives committed commands.
func NewReplica(ep *rdma.Endpoint, cfg Config, sm StateMachine) *Replica {
	cfg.applyDefaults()
	r := &Replica{
		cfg:       cfg,
		ep:        ep,
		sm:        sm,
		log:       make(map[uint64]*Entry),
		committed: make(map[uint64]bool),
		applied:   make(map[uint64]bool),
		acks:      make(map[uint64]map[rdma.NodeID]bool),
		waiters:   make(map[uint64][]proposeWaiter),
		closeCh:   make(chan struct{}),
		rng:       rand.New(rand.NewSource(int64(hashNode(ep.ID())))),

		peerApplied: make(map[rdma.NodeID]uint64),

		metPropose:   ep.Metrics().Counter("raft.propose.ops"),
		metCommit:    ep.Metrics().Histogram("raft.propose.us"),
		metAppend:    ep.Metrics().Counter("raft.append.served"),
		metTruncated: ep.Metrics().Counter("raft.log.truncated"),
	}
	for _, p := range cfg.Peers {
		if p != ep.ID() {
			r.others = append(r.others, p)
		}
	}
	r.inflightCond = sync.NewCond(&r.mu)
	r.lastHeartbeat = time.Now()
	if cfg.Bootstrap && ep.ID() == cfg.Peers[0] {
		r.term = 1
		r.role = Leader
		r.leader = ep.ID()
	} else if cfg.Bootstrap {
		r.term = 1
		r.leader = cfg.Peers[0]
	}
	ep.RegisterHandler(r.method("append"), r.handleAppend)
	ep.RegisterHandler(r.method("vote"), r.handleVote)
	ep.RegisterHandler(r.method("fetch"), r.handleFetch)
	ep.RegisterHandler(r.method("status"), r.handleStatus)
	r.wg.Add(1)
	go r.ticker()
	return r
}

func (r *Replica) method(name string) string { return "raft." + r.cfg.Group + "." + name }

func hashNode(id rdma.NodeID) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// Close stops the replica's background goroutines.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.closeCh)
	r.inflightCond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// Role returns the replica's current role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Term returns the current term.
func (r *Replica) Term() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.term
}

// Leader returns the node this replica believes is leader ("" if unknown).
func (r *Replica) Leader() rdma.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leader
}

// ApplyPrefix returns the contiguous applied prefix.
func (r *Replica) ApplyPrefix() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyPrefix
}

// majority returns the quorum size.
func (r *Replica) majority() int { return len(r.cfg.Peers)/2 + 1 }

// Propose replicates cmd with the given write ranges. It blocks until the
// entry is committed (majority-durable) and applied to this replica's
// state machine, or the replica loses leadership. Returns the entry's
// index.
func (r *Replica) Propose(cmd []byte, ranges []Range) (uint64, error) {
	if len(ranges) == 0 {
		ranges = FullRange
	}
	r.metPropose.Inc()
	start := time.Now()
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return 0, ErrShutdown
		}
		if r.role != Leader {
			r.mu.Unlock()
			return 0, ErrNotLeader
		}
		// ParallelRaft bounds in-flight entries by the look-behind window.
		if r.maxIndex-r.commitPrefix < uint64(r.cfg.Window) {
			break
		}
		r.inflightCond.Wait()
	}
	idx := r.maxIndex + 1
	e := &Entry{Index: idx, Term: r.term, Ranges: ranges, Cmd: cmd, LookBehind: r.lookBehindLocked(idx)}
	r.log[idx] = e
	r.maxIndex = idx
	if idx > r.maxSeen {
		r.maxSeen = idx
	}
	r.acks[idx] = map[rdma.NodeID]bool{r.ep.ID(): true}
	w := proposeWaiter{ch: make(chan error, 1)}
	r.waiters[idx] = append(r.waiters[idx], w)
	term := r.term
	r.mu.Unlock()

	r.broadcastEntry(e, term)

	r.mu.Lock()
	r.tryCommitLocked()
	r.mu.Unlock()
	r.checkApply()

	select {
	case err := <-w.ch:
		if err == nil {
			r.metCommit.Observe(time.Since(start))
		}
		return idx, err
	case <-r.closeCh:
		return 0, ErrShutdown
	}
}

// lookBehindLocked builds the look-behind buffer for a new entry at idx.
func (r *Replica) lookBehindLocked(idx uint64) [][]Range {
	n := r.cfg.Window
	if idx-1 < uint64(n) {
		n = int(idx - 1)
	}
	lb := make([][]Range, n)
	for i := 0; i < n; i++ {
		j := idx - uint64(n-i)
		if e, ok := r.log[j]; ok {
			lb[i] = e.Ranges
		} else {
			// Unknown predecessor: mark as conflicting with everything so
			// downstream conflict checks stay conservative.
			lb[i] = FullRange
		}
	}
	return lb
}

// broadcastEntry pushes one entry to every peer (out-of-order: each entry
// is an independent message; no ordering between broadcasts).
func (r *Replica) broadcastEntry(e *Entry, term uint64) {
	r.sendToPeers(r.buildAppendReq(e, term), e.Index)
}

// sendToPeers sends one append request to every peer, each from its own
// goroutine, and hands the replies to processAppendResp. idx is the index
// of the entry the request carries, 0 for a heartbeat. Once Close has
// begun nothing is sent: Close waits on wg, which must not grow under it.
func (r *Replica) sendToPeers(req []byte, idx uint64) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.wg.Add(len(r.others))
	r.mu.Unlock()
	for _, p := range r.others {
		go func() {
			defer r.wg.Done()
			resp, err := r.ep.Call(p, r.method("append"), req)
			if err != nil {
				return
			}
			r.processAppendResp(p, idx, resp)
		}()
	}
}

func (r *Replica) buildAppendReq(e *Entry, term uint64) []byte {
	r.mu.Lock()
	cp := r.commitPrefix
	extra := r.committedBeyondPrefixLocked()
	ms := r.maxSeen
	tt := r.truncTo
	r.mu.Unlock()
	return marshalAppendReq(term, r.ep.ID(), cp, ms, tt, extra, e)
}

// marshalAppendReq is the append/heartbeat request layout
// (unmarshalAppendReq decodes it), encoded into a buffer of exactly its
// size.
func marshalAppendReq(term uint64, leader rdma.NodeID, commitPrefix, maxSeen, truncTo uint64, extra []uint64, e *Entry) []byte {
	size := 8 + 4 + len(leader) + 8 + 8 + 8 + 2 + 8*len(extra) + 1
	if e != nil {
		size += e.size()
	}
	w := wire.NewWriter(size)
	w.U64(term)
	w.String(string(leader))
	w.U64(commitPrefix)
	w.U64(maxSeen)
	w.U64(truncTo)
	w.U16(uint16(len(extra)))
	for _, i := range extra {
		w.U64(i)
	}
	if e != nil {
		w.Bool(true)
		e.marshal(w)
	} else {
		w.Bool(false)
	}
	return w.Bytes()
}

// appendReq is a decoded append/heartbeat request.
type appendReq struct {
	term, commitPrefix, maxSeen, truncTo uint64
	leader                               rdma.NodeID
	extra                                []uint64
	entry                                *Entry // nil for a heartbeat
}

// unmarshalAppendReq decodes marshalAppendReq's layout. The entry flag is
// 0 or 1; any other value is a corrupt request.
func unmarshalAppendReq(req []byte) (appendReq, error) {
	rd := wire.NewReader(req)
	var a appendReq
	a.term = rd.U64()
	a.leader = rdma.NodeID(rd.String())
	a.commitPrefix = rd.U64()
	a.maxSeen = rd.U64()
	a.truncTo = rd.U64()
	n := int(rd.U16())
	a.extra = make([]uint64, 0, min(n, rd.Remaining()/8))
	for i := 0; i < n && rd.Err() == nil; i++ {
		a.extra = append(a.extra, rd.U64())
	}
	switch flag := rd.U8(); {
	case rd.Err() != nil:
	case flag == 1:
		a.entry = new(Entry)
		a.entry.unmarshal(rd)
	case flag != 0:
		return appendReq{}, fmt.Errorf("parallelraft: append request with entry flag %d", flag)
	}
	if err := rd.Err(); err != nil {
		return appendReq{}, fmt.Errorf("parallelraft: decoding append request: %w", err)
	}
	return a, nil
}

func (r *Replica) committedBeyondPrefixLocked() []uint64 {
	var out []uint64
	for i := r.commitPrefix + 1; i <= r.maxSeen; i++ {
		if r.committed[i] {
			out = append(out, i)
		}
	}
	return out
}

// handleAppend processes an AppendEntries/heartbeat RPC on a follower.
func (r *Replica) handleAppend(from rdma.NodeID, req []byte) ([]byte, error) {
	r.metAppend.Inc()
	a, err := unmarshalAppendReq(req)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	if a.term < r.term {
		resp := r.appendRespLocked(false)
		r.mu.Unlock()
		return resp, nil
	}
	if a.term > r.term || r.role != Follower {
		r.becomeFollowerLocked(a.term, a.leader)
	}
	r.leader = a.leader
	r.lastHeartbeat = time.Now()
	if a.maxSeen > r.maxSeen {
		r.maxSeen = a.maxSeen
	}
	ack := false
	if e := a.entry; e != nil {
		// A late duplicate of a truncated entry is acked but not kept.
		if existing, ok := r.log[e.Index]; e.Index > r.logFloor && (!ok || existing.Term < e.Term) {
			r.log[e.Index] = e
			if e.Index > r.maxIndex {
				r.maxIndex = e.Index
			}
		}
		ack = true // out-of-order ack: durable locally, holes allowed
	}
	// Learn commits from the leader.
	if a.commitPrefix > r.commitPrefix {
		r.advanceCommitTo(a.commitPrefix)
	}
	for _, i := range a.extra {
		r.committed[i] = true
	}
	r.rollCommitPrefixLocked()
	if a.truncTo > r.truncTo {
		r.truncTo = a.truncTo
	}
	r.truncateLocked()
	resp := r.appendRespLocked(ack)
	r.mu.Unlock()
	r.checkApply()
	return resp, nil
}

// truncateLocked drops the log entries nobody can ask for again: every
// replica has applied the indexes up to truncTo, and catch-up, fetch and
// the merge stage only ever ask above the asker's applyPrefix. What is
// still read below an apply prefix is the look-behind buffer of the next
// proposal, Window entries back, so that margin stays. The replica's own
// applyPrefix bounds the range as well: whatever a leader sends, a replica
// never drops an entry it has yet to apply. Caller holds mu.
func (r *Replica) truncateLocked() {
	limit := r.truncTo
	if r.applyPrefix < limit {
		limit = r.applyPrefix
	}
	if limit <= r.logFloor+uint64(r.cfg.Window) {
		return
	}
	limit -= uint64(r.cfg.Window)
	dropped := uint64(0)
	for i := r.logFloor + 1; i <= limit; i++ {
		if _, ok := r.log[i]; ok {
			delete(r.log, i)
			dropped++
		}
	}
	r.logFloor = limit
	r.metTruncated.Add(dropped)
}

// advanceCommitTo marks all entries up to cp committed. Caller holds mu.
func (r *Replica) advanceCommitTo(cp uint64) {
	for i := r.commitPrefix + 1; i <= cp; i++ {
		r.committed[i] = true
	}
	r.rollCommitPrefixLocked()
}

func (r *Replica) rollCommitPrefixLocked() {
	for r.committed[r.commitPrefix+1] {
		delete(r.committed, r.commitPrefix+1)
		r.commitPrefix++
	}
	r.inflightCond.Broadcast()
}

func (r *Replica) appendRespLocked(ack bool) []byte {
	w := wire.NewWriter(32)
	w.U64(r.term)
	w.Bool(ack)
	w.U64(r.maxIndex)
	w.U64(r.neededIndexLocked())
	w.U64(r.applyPrefix)
	return w.Bytes()
}

// neededIndexLocked returns the lowest index the replica is missing below
// maxSeen (0 if none) — a catch-up hint for the leader.
func (r *Replica) neededIndexLocked() uint64 {
	for i := r.applyPrefix + 1; i <= r.maxSeen; i++ {
		if _, ok := r.log[i]; !ok {
			return i
		}
	}
	return 0
}

// ackEntry records an ack for index from peer and may commit.
func (r *Replica) ackEntry(idx uint64, peer rdma.NodeID) {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return
	}
	if r.acks[idx] == nil {
		r.acks[idx] = make(map[rdma.NodeID]bool)
	}
	r.acks[idx][peer] = true
	r.tryCommitLocked()
	r.mu.Unlock()
	r.checkApply()
}

// tryCommitLocked commits every entry that has a majority of acks and no
// conflicting uncommitted predecessor within the window. Caller holds mu.
func (r *Replica) tryCommitLocked() {
	if r.role != Leader {
		return
	}
	for idx := r.commitPrefix + 1; idx <= r.maxIndex; idx++ {
		if r.committed[idx] {
			continue
		}
		e, ok := r.log[idx]
		if !ok {
			// Leader with a hole (possible right after election, before the
			// merge stage completes): cannot commit past it out of order
			// unless proven non-conflicting, which needs the entry itself.
			break
		}
		if len(r.acks[idx]) < r.majority() {
			if r.entryConflictsBehindLocked(e) {
				break // in-order portion stalls here
			}
			continue // non-conflicting: later entries may still commit
		}
		if r.entryConflictsBehindLocked(e) {
			continue // wait for conflicting predecessors to commit first
		}
		r.committed[idx] = true
		delete(r.acks, idx)
	}
	r.rollCommitPrefixLocked()
}

// entryConflictsBehindLocked reports whether e conflicts with any
// uncommitted predecessor in (idx-Window, idx).
func (r *Replica) entryConflictsBehindLocked(e *Entry) bool {
	lo := uint64(1)
	if e.Index > uint64(r.cfg.Window) {
		lo = e.Index - uint64(r.cfg.Window)
	}
	for j := lo; j < e.Index; j++ {
		if j <= r.commitPrefix || r.committed[j] {
			continue
		}
		var ranges []Range
		if pe, ok := r.log[j]; ok {
			ranges = pe.Ranges
		} else {
			ranges = e.lookBehindRanges(j)
		}
		if rangesConflict(e.Ranges, ranges) {
			return true
		}
	}
	return false
}

// lookBehindRanges returns the ranges of predecessor j recorded in e's
// look-behind buffer, or FullRange if outside the buffer.
func (e *Entry) lookBehindRanges(j uint64) []Range {
	n := uint64(len(e.LookBehind))
	if j >= e.Index || j+n < e.Index {
		return FullRange
	}
	return e.LookBehind[n-(e.Index-j)]
}

// checkApply applies every committed entry whose conflicting predecessors
// have been applied (out-of-order apply).
func (r *Replica) checkApply() {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	for {
		var toApply *Entry
		r.mu.Lock()
		limit := r.maxIndex
		for idx := r.applyPrefix + 1; idx <= limit; idx++ {
			if r.applied[idx] {
				continue
			}
			if idx > r.commitPrefix && !r.committed[idx] {
				// Not yet committed. A later committed entry may still be
				// applicable if it does not conflict, so keep scanning, but
				// only within the window.
				continue
			}
			e, ok := r.log[idx]
			if !ok {
				continue // hole: cannot apply this one yet
			}
			if r.applyConflictsBehindLocked(e) {
				continue
			}
			toApply = e
			break
		}
		if toApply == nil {
			r.mu.Unlock()
			return
		}
		r.applied[toApply.Index] = true
		r.mu.Unlock()
		if toApply.Cmd != nil && r.sm != nil {
			r.sm.Apply(toApply.Index, toApply.Cmd)
		}
		r.mu.Lock()
		for r.applied[r.applyPrefix+1] {
			delete(r.applied, r.applyPrefix+1)
			r.applyPrefix++
		}
		// The proposer returns only now: whatever it acknowledges is
		// visible to a read of this replica's state machine.
		for _, w := range r.waiters[toApply.Index] {
			w.ch <- nil
		}
		delete(r.waiters, toApply.Index)
		r.mu.Unlock()
	}
}

// applyConflictsBehindLocked reports whether any unapplied predecessor of e
// (within the window, or anything at all beyond it) blocks applying e.
func (r *Replica) applyConflictsBehindLocked(e *Entry) bool {
	if e.Index > uint64(r.cfg.Window) && r.applyPrefix < e.Index-uint64(r.cfg.Window) {
		return true // predecessors beyond the window must all be applied
	}
	lo := uint64(1)
	if e.Index > uint64(r.cfg.Window) {
		lo = e.Index - uint64(r.cfg.Window)
	}
	for j := lo; j < e.Index; j++ {
		if j <= r.applyPrefix || r.applied[j] {
			continue
		}
		var ranges []Range
		if pe, ok := r.log[j]; ok {
			ranges = pe.Ranges
		} else {
			ranges = e.lookBehindRanges(j)
		}
		if rangesConflict(e.Ranges, ranges) {
			return true
		}
	}
	return false
}
