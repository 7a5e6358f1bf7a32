package parallelraft

import (
	"time"

	"polardb/internal/rdma"
	"polardb/internal/wire"
)

// ticker drives heartbeats (leader) and election timeouts (follower).
func (r *Replica) ticker() {
	defer r.wg.Done()
	for {
		select {
		case <-r.closeCh:
			return
		case <-time.After(r.cfg.HeartbeatInterval):
		}
		r.mu.Lock()
		role := r.role
		elapsed := time.Since(r.lastHeartbeat)
		timeout := r.cfg.ElectionTimeout + time.Duration(r.rng.Int63n(int64(r.cfg.ElectionTimeout)))
		r.mu.Unlock()

		switch role {
		case Leader:
			r.sendHeartbeats()
		case Follower, Candidate:
			if elapsed > timeout {
				r.startElection()
			}
		}
	}
}

// sendHeartbeats pushes an empty append (with commit info) to all peers.
func (r *Replica) sendHeartbeats() {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return
	}
	term := r.term
	r.mu.Unlock()
	r.sendToPeers(r.buildAppendReq(nil, term), 0)
}

// processAppendResp handles an append/heartbeat response. idx is the entry
// index the request carried (0 for heartbeats).
func (r *Replica) processAppendResp(peer rdma.NodeID, idx uint64, resp []byte) {
	rd := wire.NewReader(resp)
	term := rd.U64()
	ack := rd.Bool()
	_ = rd.U64() // peer maxIndex
	needed := rd.U64()
	applied := rd.U64()
	if rd.Err() != nil {
		return
	}
	r.mu.Lock()
	if term > r.term {
		r.becomeFollowerLocked(term, "")
		r.mu.Unlock()
		return
	}
	isLeader := r.role == Leader
	if isLeader {
		r.notePeerAppliedLocked(peer, applied)
	}
	r.mu.Unlock()
	if !isLeader {
		return
	}
	if ack && idx != 0 {
		r.ackEntry(idx, peer)
	}
	if needed != 0 {
		r.sendCatchup(peer, needed)
	}
}

// notePeerAppliedLocked records a peer's applyPrefix and raises truncTo to
// the lowest prefix over all configured peers. A peer this leader has not
// heard from counts as 0, so nothing is truncated while a replica is down:
// the log grows until it is back, and it finds every entry it is missing.
// Caller holds mu.
func (r *Replica) notePeerAppliedLocked(peer rdma.NodeID, applied uint64) {
	if applied > r.peerApplied[peer] {
		r.peerApplied[peer] = applied
	}
	low := r.applyPrefix
	for _, p := range r.others {
		if r.peerApplied[p] < low {
			low = r.peerApplied[p]
		}
	}
	if low > r.truncTo {
		r.truncTo = low
	}
	r.truncateLocked()
}

// sendCatchup pushes missing entries starting at from to a lagging peer.
func (r *Replica) sendCatchup(peer rdma.NodeID, from uint64) {
	const batch = 32
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return
	}
	term := r.term
	var entries []*Entry
	for i := from; i <= r.maxIndex && len(entries) < batch; i++ {
		if e, ok := r.log[i]; ok {
			entries = append(entries, e)
		}
	}
	r.mu.Unlock()
	for _, e := range entries {
		req := r.buildAppendReq(e, term)
		//polarvet:allow fabriccost ParallelRaft appends are deliberately one RPC per entry so out-of-order acks can complete holes independently (§4 of the PolarFS paper)
		resp, err := r.ep.Call(peer, r.method("append"), req)
		if err != nil {
			return
		}
		r.processAppendResp(peer, e.Index, resp)
	}
}

// becomeFollowerLocked steps down into term. Caller holds mu.
func (r *Replica) becomeFollowerLocked(term uint64, leader rdma.NodeID) {
	if term > r.term {
		r.term = term
		r.votedFor = ""
	}
	wasLeader := r.role == Leader
	r.role = Follower
	if leader != "" {
		r.leader = leader
	}
	r.lastHeartbeat = time.Now()
	if wasLeader {
		// Fail in-flight proposals; the client retries against the new leader.
		for idx, ws := range r.waiters {
			for _, w := range ws {
				w.ch <- ErrNotLeader
			}
			delete(r.waiters, idx)
		}
		r.acks = make(map[uint64]map[rdma.NodeID]bool)
	}
	r.inflightCond.Broadcast()
}

// startElection runs one candidate round.
func (r *Replica) startElection() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.role = Candidate
	r.term++
	r.votedFor = r.ep.ID()
	r.lastHeartbeat = time.Now()
	term := r.term
	maxIdx := r.maxIndex
	cp := r.commitPrefix
	r.mu.Unlock()

	w := wire.NewWriter(64)
	w.U64(term)
	w.String(string(r.ep.ID()))
	w.U64(maxIdx)
	w.U64(cp)
	req := w.Bytes()

	votes := 1
	clusterMax := maxIdx
	for _, p := range r.cfg.Peers {
		if p == r.ep.ID() {
			continue
		}
		//polarvet:allow fabriccost a vote request must reach every peer individually; quorum fan-out is the protocol, not an accident
		resp, err := r.ep.CallTimeout(p, r.method("vote"), req, r.cfg.ElectionTimeout)
		if err != nil {
			continue
		}
		rd := wire.NewReader(resp)
		rTerm := rd.U64()
		granted := rd.Bool()
		peerMax := rd.U64()
		if rd.Err() != nil {
			continue
		}
		if rTerm > term {
			r.mu.Lock()
			r.becomeFollowerLocked(rTerm, "")
			r.mu.Unlock()
			return
		}
		if granted {
			votes++
		}
		if peerMax > clusterMax {
			clusterMax = peerMax
		}
	}
	if votes < r.majority() {
		return // stay candidate; next timeout retries
	}

	r.mu.Lock()
	if r.term != term || r.role != Candidate {
		r.mu.Unlock()
		return
	}
	r.role = Leader
	r.leader = r.ep.ID()
	if clusterMax > r.maxSeen {
		r.maxSeen = clusterMax
	}
	r.mu.Unlock()

	r.mergeStage(term, clusterMax)
	r.sendHeartbeats()
}

// mergeStage fills the new leader's log holes up to clusterMax: fetch each
// missing entry from peers; if no replica has it, it was never committed
// (an entry needs a majority to commit and this leader won a majority-vote
// with the highest log), so write a no-op in its place. Afterwards all
// entries up to clusterMax are re-replicated lazily via catch-up. The walk
// starts above the leader's own applyPrefix: what it has applied it needs
// from nobody, and below truncTo no peer could serve it any more.
func (r *Replica) mergeStage(term, clusterMax uint64) {
	r.mu.Lock()
	first := r.applyPrefix + 1
	r.mu.Unlock()
	for idx := first; idx <= clusterMax; idx++ {
		r.mu.Lock()
		_, have := r.log[idx]
		have = have || idx <= r.applyPrefix // applied meanwhile, perhaps truncated
		r.mu.Unlock()
		if have {
			continue
		}
		var found *Entry
		for _, p := range r.cfg.Peers {
			if p == r.ep.ID() {
				continue
			}
			w := wire.NewWriter(16)
			w.U64(idx)
			w.U64(idx + 1)
			//polarvet:allow fabriccost hole repair asks each peer in turn for the missing entry and stops at the first holder
			resp, err := r.ep.CallTimeout(p, r.method("fetch"), w.Bytes(), r.cfg.ElectionTimeout)
			if err != nil {
				continue
			}
			rd := wire.NewReader(resp)
			n := int(rd.U16())
			if rd.Err() != nil || n == 0 {
				continue
			}
			var e Entry
			e.unmarshal(rd)
			if rd.Err() == nil {
				found = &e
				break
			}
		}
		r.mu.Lock()
		if r.role != Leader || r.term != term {
			r.mu.Unlock()
			return
		}
		if found == nil {
			found = &Entry{Index: idx, Term: term, Ranges: FullRange, Cmd: nil}
		}
		if _, ok := r.log[idx]; !ok {
			r.log[idx] = found
			if idx > r.maxIndex {
				r.maxIndex = idx
			}
			if r.acks[idx] == nil {
				r.acks[idx] = map[rdma.NodeID]bool{r.ep.ID(): true}
			}
		}
		r.mu.Unlock()
		r.broadcastEntry(found, term)
	}
	// Re-replicate & recommit everything not yet committed.
	r.mu.Lock()
	var pending []*Entry
	for i := r.commitPrefix + 1; i <= r.maxIndex; i++ {
		if e, ok := r.log[i]; ok && !r.committed[i] {
			if r.acks[i] == nil {
				r.acks[i] = map[rdma.NodeID]bool{r.ep.ID(): true}
			}
			pending = append(pending, e)
		}
	}
	r.mu.Unlock()
	for _, e := range pending {
		r.broadcastEntry(e, term)
	}
}

// handleVote processes a RequestVote RPC.
func (r *Replica) handleVote(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	term := rd.U64()
	candidate := rdma.NodeID(rd.String())
	candMax := rd.U64()
	_ = rd.U64() // candidate commit prefix
	if err := rd.Err(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if term > r.term {
		r.becomeFollowerLocked(term, "")
	}
	granted := false
	if term == r.term && (r.votedFor == "" || r.votedFor == candidate) && candMax >= r.maxIndex {
		granted = true
		r.votedFor = candidate
		r.lastHeartbeat = time.Now()
	}
	w := wire.NewWriter(32)
	w.U64(r.term)
	w.Bool(granted)
	w.U64(r.maxIndex)
	return w.Bytes(), nil
}

// handleFetch serves log entries [from, to) for merge/catch-up.
func (r *Replica) handleFetch(from rdma.NodeID, req []byte) ([]byte, error) {
	rd := wire.NewReader(req)
	lo := rd.U64()
	hi := rd.U64()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	var entries []*Entry
	for i := lo; i < hi; i++ {
		if e, ok := r.log[i]; ok {
			entries = append(entries, e)
		}
	}
	r.mu.Unlock()
	w := wire.NewWriter(256)
	w.U16(uint16(len(entries)))
	for _, e := range entries {
		e.marshal(w)
	}
	return w.Bytes(), nil
}

// handleStatus reports (term, role, leader, maxIndex, commitPrefix) — used
// by the group client to locate the leader.
func (r *Replica) handleStatus(from rdma.NodeID, req []byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := wire.NewWriter(64)
	w.U64(r.term)
	w.U8(uint8(r.role))
	w.String(string(r.leader))
	w.U64(r.maxIndex)
	w.U64(r.commitPrefix)
	return w.Bytes(), nil
}
