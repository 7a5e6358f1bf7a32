package btree

import (
	"errors"
	"fmt"

	"polardb/internal/types"
)

// Space layout: page 0 is the space header (page allocator), page 1 is the
// tree root (fixed for the tree's lifetime; root splits grow downward).
const (
	headerPageNo = 0
	rootPageNo   = 1
)

// Tree is a B+tree over a tablespace.
type Tree struct {
	store Store
	space types.SpaceID
}

// Create formats a new tree in space (header + empty leaf root) inside m.
// The space is the caller's to vouch for: nothing was ever written to it,
// so neither page is read.
func Create(store Store, m Mtr, space types.SpaceID) (*Tree, error) {
	t := &Tree{store: store, space: space}
	hdr, err := t.fetchNew(headerPageNo)
	if err != nil {
		return nil, err
	}
	lockX(m, hdr, false)
	hdr.setU32(offAllocNext, rootPageNo+1)
	hdr.setU32(offFreeHead, 0)
	hdr.flush(m)
	unlockX(m, hdr)
	t.store.Unpin(hdr.f)

	root, err := t.fetchNew(rootPageNo)
	if err != nil {
		return nil, err
	}
	lockX(m, root, false)
	root.init(pageLeaf, 0)
	root.flush(m)
	unlockX(m, root)
	t.store.Unpin(root.f)
	return t, nil
}

// Open attaches to an existing tree in space.
func Open(store Store, space types.SpaceID) *Tree {
	return &Tree{store: store, space: space}
}

// Space returns the tree's tablespace id.
func (t *Tree) Space() types.SpaceID { return t.space }

func (t *Tree) pageID(no types.PageNo) types.PageID {
	return types.PageID{Space: t.space, No: no}
}

func (t *Tree) fetch(no types.PageNo) (*node, error) {
	f, err := t.store.Fetch(t.pageID(no))
	if err != nil {
		return nil, err
	}
	return wrap(f), nil
}

// fetchNew is fetch for a page nothing was ever written to (Store.FetchNew).
func (t *Tree) fetchNew(no types.PageNo) (*node, error) {
	f, err := t.store.FetchNew(t.pageID(no))
	if err != nil {
		return nil, err
	}
	return wrap(f), nil
}

// allocXLatched takes a page from the space's free list, or extends the
// space, and returns it write-latched and X-PL'd. hdr is the space header,
// which a pessimistic operation latches first: the write hands it to m,
// which keeps it until it commits, so the space's allocations are logged
// in the order they were made and the SMOs of one tree run one at a time.
// The page comes after the header in the latch order: nobody else can
// reach it, since what points at it is written, and held, by m.
func (t *Tree) allocXLatched(m Mtr, hdr *node) (*node, error) {
	no, fetch := types.PageNo(hdr.u32(offFreeHead)), t.fetch
	free := no != 0
	if !free {
		// Extending the space: nothing was ever written to the page, so
		// there is nothing to read (a page off the free list was).
		no = types.PageNo(hdr.u32(offAllocNext))
		fetch = t.fetchNew
	}
	n, err := fetch(no)
	if err != nil {
		return nil, err
	}
	if err := t.store.PLLockX(n.f); err != nil {
		t.store.Unpin(n.f)
		return nil, err
	}
	lockX(m, n, false)
	if free {
		hdr.setU32(offFreeHead, uint32(n.nextLeaf()))
	} else {
		hdr.setU32(offAllocNext, uint32(no)+1)
	}
	hdr.flush(m)
	return n, nil
}

// freePage returns a page to the space free list. The caller holds its
// latch and the space header's.
func (t *Tree) freePage(m Mtr, hdr, n *node) {
	n.setU8(offNodeType, pageFree)
	n.setNKeys(0)
	n.setNextLeaf(types.PageNo(hdr.u32(offFreeHead)))
	n.flush(m)
	hdr.setU32(offFreeHead, uint32(n.pageNo()))
	hdr.flush(m)
}

// ---------------------------------------------------------------------------
// Reads

type readCtx struct {
	t     *Tree
	mode  TraverseMode
	clock uint64
	// A write's descent reads under its MTR: a page m holds is not latched
	// again, and with try a busy latch fails it (ErrLatchBusy).
	m   Mtr
	try bool
}

// newReadCtx starts a traversal; retry says the previous attempt ended in
// an SMO conflict.
func (t *Tree) newReadCtx(mode TraverseMode, retry bool) (*readCtx, error) {
	rc := &readCtx{t: t, mode: mode}
	if mode == Optimistic {
		clock, err := t.store.SMOClock(retry)
		if err != nil {
			return nil, err
		}
		rc.clock = clock
	}
	return rc, nil
}

// acquire fetches and read-latches a page under the ctx's protocol.
func (rc *readCtx) acquire(no types.PageNo) (*node, error) {
	n, err := rc.t.fetch(no)
	if err != nil {
		return nil, err
	}
	if rc.mode == PessimisticS {
		if err := rc.t.store.PLLockS(n.f); err != nil {
			rc.t.store.Unpin(n.f)
			return nil, err
		}
		// The latch may have been granted only after an SMO on this page
		// completed, and the copy fetched before the wait predates it:
		// followed further, it would lead into the post-SMO version of a
		// child. Fetch again now that no SMO can run on the page.
		held, err := rc.t.fetch(no)
		if err != nil {
			rc.t.store.PLUnlockS(n.f)
			rc.t.store.Unpin(n.f)
			return nil, err
		}
		rc.t.store.Unpin(n.f)
		n = held
	}
	switch {
	case rc.m != nil && rc.m.Holds(n.f):
	case !rc.try:
		n.f.Latch.RLock()
	case !n.f.Latch.TryRLock():
		rc.t.store.Unpin(n.f)
		return nil, ErrLatchBusy
	}
	if rc.mode == Optimistic {
		if n.smoStamp() > rc.clock {
			rc.release(n)
			return nil, ErrSMOConflict
		}
		if err := n.sanityCheck(); err != nil {
			rc.release(n)
			return nil, fmt.Errorf("%w: %v", ErrSMOConflict, err)
		}
	}
	return n, nil
}

func (rc *readCtx) release(n *node) {
	if rc.m == nil || !rc.m.Holds(n.f) {
		n.f.Latch.RUnlock()
	}
	if rc.mode == PessimisticS {
		rc.t.store.PLUnlockS(n.f)
	}
	rc.t.store.Unpin(n.f)
}

// optimisticRetries is how many times a read retries an SMO conflict with
// a fresh clock before it falls back to PessimisticS (§4.1), or, for a
// prefetch, gives up.
const optimisticRetries = 3

// scanReadAhead is how many leaves past the one it is about to read a
// range scan asks the store to warm. Their reads then overlap the first
// one instead of following it; an early stop wastes at most this many.
const scanReadAhead = 16

// descendToLeaf walks root-to-leaf with read coupling, returning the
// latched leaf covering key. to > key marks a range scan of [key, to): on
// its way past the level-1 node the descent hints the leaves that node
// names for the rest of the range (Store.Warm).
func (rc *readCtx) descendToLeaf(key, to uint64) (*node, error) {
	cur, err := rc.acquire(rootPageNo)
	if err != nil {
		return nil, err
	}
	for !cur.isLeaf() {
		if to > key && cur.level() == 1 {
			if ahead := cur.childrenAfter(key, to, scanReadAhead); len(ahead) > 0 {
				rc.t.store.Warm(ahead)
			}
		}
		childNo := cur.descendChild(key)
		child, err := rc.acquire(childNo)
		if err != nil {
			rc.release(cur)
			return nil, err
		}
		rc.release(cur)
		cur = child
	}
	return cur, nil
}

// Get returns a copy of key's value.
func (t *Tree) Get(key uint64, mode TraverseMode) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		val, err := t.getOnce(key, mode, attempt > 0)
		if err == nil || !errors.Is(err, ErrSMOConflict) {
			return val, err
		}
		if attempt >= optimisticRetries {
			mode = PessimisticS // fall back (§4.1)
		}
	}
}

func (t *Tree) getOnce(key uint64, mode TraverseMode, retry bool) ([]byte, error) {
	rc, err := t.newReadCtx(mode, retry)
	if err != nil {
		return nil, err
	}
	leaf, err := rc.descendToLeaf(key, 0)
	if err != nil {
		return nil, err
	}
	defer rc.release(leaf)
	idx, found := leaf.search(key)
	if !found {
		return nil, ErrKeyNotFound
	}
	v := leaf.value(idx)
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Leaves resolves a key batch (ascending; duplicates allowed) to the
// distinct leaf pages covering it, in key order, without reading any of
// them: the walk takes the whole batch down the tree one level at a time,
// visiting each inner page once under mode's protocol and hinting each
// level's pages to the store before it visits them (Store.Warm), so a
// level costs one round of fetches however many pages it has. It is the
// index half of Batched Key PrePare (§4.2); the caller warms what it
// returns. Pages are visited without latch coupling — nothing is returned
// but page numbers, and a number gone stale under a concurrent SMO is a
// wasted hint — so the walk only follows a pointer to the level it
// expects. An SMO conflict is retried with a fresh clock a few times and
// then given up: a prefetch never fails the query it runs ahead of.
func (t *Tree) Leaves(keys []uint64, mode TraverseMode) ([]types.PageID, error) {
	for attempt := 0; ; attempt++ {
		leaves, err := t.leavesOnce(keys, mode, attempt > 0)
		if err == nil || !errors.Is(err, ErrSMOConflict) || attempt >= optimisticRetries {
			return leaves, err
		}
	}
}

func (t *Tree) leavesOnce(keys []uint64, mode TraverseMode, retry bool) ([]types.PageID, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	rc, err := t.newReadCtx(mode, retry)
	if err != nil {
		return nil, err
	}
	// part is a page of the level being visited and the keys routed to it.
	type part struct {
		no   types.PageNo
		keys []uint64
	}
	var leaves []types.PageID
	level := []part{{rootPageNo, keys}}
	for height := -1; len(level) > 0; height-- { // the level's number; the root says what it is
		var next []part
		var nextIDs []types.PageID
		for _, p := range level {
			//polarvet:allow fabriccost the level's pages went to Store.Warm in one call when their parents were read, so these fetches find them cached or join fills already running side by side; what is left per page is its validation
			n, err := rc.acquire(p.no)
			if err != nil {
				return nil, err
			}
			if height < 0 {
				height = int(n.level())
			}
			switch {
			case height == 0 && n.isLeaf(): // the root is the whole tree
				leaves = append(leaves, n.id())
			case height > 0 && n.nodeType() == pageInternal && int(n.level()) == height:
				// (Anything else was freed or reused since its parent was read.)
				n.route(p.keys, func(child types.PageNo, keys []uint64) {
					if height == 1 {
						leaves = append(leaves, t.pageID(child))
					} else {
						next = append(next, part{child, keys})
						nextIDs = append(nextIDs, t.pageID(child))
					}
				})
			}
			rc.release(n)
		}
		if len(nextIDs) > 0 {
			t.store.Warm(nextIDs)
		}
		level = next
	}
	return leaves, nil
}

// KV is one key/value pair delivered by Scan.
type KV struct {
	Key   uint64
	Value []byte
}

// Scan streams entries with from <= key < to in order, calling fn outside
// any latch. fn returning false stops the scan.
func (t *Tree) Scan(from, to uint64, mode TraverseMode, fn func(KV) bool) error {
	cursor := from
	attempt := 0
	retry := false
	for {
		done, err := t.scanChunk(&cursor, to, mode, retry, fn)
		retry = err != nil
		if err == nil {
			if done {
				return nil
			}
			continue
		}
		if !errors.Is(err, ErrSMOConflict) {
			return err
		}
		attempt++
		if attempt > optimisticRetries {
			mode = PessimisticS
		}
	}
}

// scanChunk collects one leaf's worth of entries (hopping empty coverage
// with left-to-right latch coupling) and delivers them outside latches.
func (t *Tree) scanChunk(cursor *uint64, to uint64, mode TraverseMode, retry bool, fn func(KV) bool) (bool, error) {
	rc, err := t.newReadCtx(mode, retry)
	if err != nil {
		return false, err
	}
	leaf, err := rc.descendToLeaf(*cursor, to)
	if err != nil {
		return false, err
	}
	var batch []KV
	exhausted := false
	for {
		idx, _ := leaf.search(*cursor)
		for ; idx < leaf.nkeys(); idx++ {
			k := leaf.slotKey(idx)
			if k >= to {
				break
			}
			v := leaf.value(idx)
			c := make([]byte, len(v))
			copy(c, v)
			batch = append(batch, KV{Key: k, Value: c})
		}
		next := leaf.nextLeaf()
		if idx < leaf.nkeys() || next == 0 {
			exhausted = true
		}
		if len(batch) > 0 || exhausted {
			rc.release(leaf)
			break
		}
		// This leaf's coverage had nothing at or past the cursor; hop to
		// the right sibling while still holding this leaf (left-to-right
		// coupling keeps the chain walk safe against concurrent merges).
		nl, err := rc.acquire(next)
		if err != nil {
			rc.release(leaf)
			return false, err
		}
		rc.release(leaf)
		leaf = nl
	}

	for _, kv := range batch {
		if !fn(kv) {
			return true, nil
		}
		*cursor = kv.Key + 1
	}
	// More chunks remain unless the range ended with this one; the caller
	// re-descends from the updated cursor.
	return exhausted || *cursor >= to, nil
}

// ---------------------------------------------------------------------------
// Writes

// PatchInPlace applies a size-preserving in-place edit to key's value:
// fn receives the current value bytes (aliasing the page, write-latched)
// and returns an (offset, data) patch within the value to apply and log,
// or ok=false to leave the value untouched. Used by the asynchronous
// commit-timestamp backfill (§3.3), which overwrites just the cts_commit
// field of records. With an m that holds latches already (a second key in
// one MTR), a busy latch is not waited for: ErrLatchBusy says nothing was
// written, and the caller commits m and goes on in a new MTR.
func (t *Tree) PatchInPlace(m Mtr, key uint64, fn func(val []byte) (off int, data []byte, ok bool)) error {
	if t.store.ReadOnly() {
		return ErrReadOnly
	}
	for {
		done, err := t.patchOnce(m, key, fn)
		if done || err != nil {
			return err
		}
	}
}

// patchOnce is one attempt of PatchInPlace: a read-coupled descent that
// decides whether the key exists, then the write latch on its leaf.
// done=false means an SMO moved the key between the two latches; every
// latch is released by then, so the caller can descend again (retrying
// with the leaf still write-latched would deadlock on that very page
// when the descent comes back to it, as it does after a root split).
func (t *Tree) patchOnce(m Mtr, key uint64, fn func(val []byte) (off int, data []byte, ok bool)) (done bool, err error) {
	rc := &readCtx{t: t, mode: Local, m: m, try: m.Holding()}
	cur, err := rc.descendToLeaf(key, 0)
	if err != nil {
		return true, err
	}
	no := cur.pageNo()
	_, present := cur.search(key)
	rc.release(cur)
	if !present {
		return true, ErrKeyNotFound
	}

	leaf, err := t.fetch(no)
	if err != nil {
		return true, err
	}
	if !lockX(m, leaf, rc.try) {
		t.store.Unpin(leaf.f)
		return true, ErrLatchBusy
	}
	defer func() {
		unlockX(m, leaf)
		t.store.Unpin(leaf.f)
	}()
	if !leaf.isLeaf() {
		return false, nil
	}
	idx, found := leaf.search(key)
	if !found {
		return false, nil // moved or deleted since the descent; the next one tells which
	}
	v := leaf.value(idx)
	off, data, ok := fn(v)
	if !ok {
		return true, nil
	}
	if off < 0 || off+len(data) > len(v) {
		return true, fmt.Errorf("btree: patch [%d,%d) outside value of %d bytes", off, off+len(data), len(v))
	}
	copy(v[off:], data)
	cellOff, _ := leaf.slotCell(idx)
	leaf.touch(cellOff+off, cellOff+off+len(data))
	leaf.flush(m)
	return true, nil
}

// Insert adds key -> val; ErrKeyExists if present.
func (t *Tree) Insert(m Mtr, key uint64, val []byte) error {
	return t.write(m, key, val, opInsert)
}

// Put adds or replaces key -> val.
func (t *Tree) Put(m Mtr, key uint64, val []byte) error {
	return t.write(m, key, val, opPut)
}

// Delete removes key; ErrKeyNotFound if absent.
func (t *Tree) Delete(m Mtr, key uint64) error {
	return t.write(m, key, nil, opDelete)
}

type writeOp int

const (
	opInsert writeOp = iota
	opPut
	opDelete
)

func (t *Tree) write(m Mtr, key uint64, val []byte, op writeOp) error {
	if t.store.ReadOnly() {
		return ErrReadOnly
	}
	if len(val) > MaxValueSize {
		return ErrValueTooBig
	}
	// Optimistic attempt: read-couple to the leaf, write-latch it, and
	// apply if no SMO is needed. Only local latches are taken (§3.2).
	done, err := t.writeOptimistic(m, key, val, op)
	if done || err != nil {
		return err
	}
	// Pessimistic: write-latch + X-PL the unsafe path from the root.
	return t.writePessimistic(m, key, val, op)
}

// writeOptimistic returns done=false when an SMO is (possibly) required.
func (t *Tree) writeOptimistic(m Mtr, key uint64, val []byte, op writeOp) (bool, error) {
	rc := &readCtx{t: t, mode: Local, m: m}
	cur, err := rc.descendToLeaf(key, 0)
	if err != nil {
		return true, err
	}
	// Re-latch the leaf exclusively (revalidating it still covers key is
	// unnecessary: we held its R latch until here only in coupling steps;
	// between RUnlock and Lock the leaf may split, so verify).
	no := cur.pageNo()
	rc.release(cur)

	leaf, err := t.fetch(no)
	if err != nil {
		return true, err
	}
	lockX(m, leaf, false)
	defer func() {
		unlockX(m, leaf)
		t.store.Unpin(leaf.f)
	}()
	// The page may have changed roles or coverage since we released the R
	// latch; bail to the pessimistic path if anything looks off.
	if !leaf.isLeaf() || !t.leafCovers(leaf, key) {
		return false, nil
	}
	idx, found := leaf.search(key)
	switch op {
	case opInsert:
		if found {
			return true, ErrKeyExists
		}
		if !leaf.fits(len(val)) {
			return false, nil // needs split
		}
		leaf.insertAt(idx, key, val)
	case opPut:
		if found {
			if !leaf.replaceValue(idx, val) {
				return false, nil
			}
		} else {
			if !leaf.fits(len(val)) {
				return false, nil
			}
			leaf.insertAt(idx, key, val)
		}
	case opDelete:
		if !found {
			return true, ErrKeyNotFound
		}
		if leaf.nkeys() == 1 && leaf.pageNo() != rootPageNo {
			return false, nil // would empty the leaf: needs merge
		}
		leaf.removeAt(idx)
	}
	leaf.flush(m)
	return true, nil
}

// leafCovers reports whether key belongs on this leaf: within (prev-most
// key bound unknown locally, so approximate with key range + sibling
// pointers). A precise check needs the parent; instead accept when the
// key fits the leaf's key span or the leaf chain boundary allows it.
func (t *Tree) leafCovers(leaf *node, key uint64) bool {
	nk := leaf.nkeys()
	if nk == 0 {
		// Cannot tell locally; only the root-as-leaf is trivially right.
		return leaf.pageNo() == rootPageNo
	}
	if key < leaf.slotKey(0) && leaf.prevLeaf() != 0 {
		return false
	}
	if key > leaf.slotKey(nk-1) && leaf.nextLeaf() != 0 {
		// key may belong to a right sibling; conservative re-descend.
		return false
	}
	return true
}

// latched tracks the pessimistic path: write-latched, X-PL'd nodes from
// the shallowest retained ancestor down to the leaf.
type latched struct {
	t     *Tree
	m     Mtr
	nodes []*node
}

func (l *latched) push(n *node) { l.nodes = append(l.nodes, n) }

// releaseAncestors drops everything except the deepest node.
func (l *latched) releaseAncestors() {
	for _, n := range l.nodes[:len(l.nodes)-1] {
		l.t.releaseX(l.m, n)
	}
	l.nodes = l.nodes[len(l.nodes)-1:]
}

func (l *latched) releaseAll() {
	for _, n := range l.nodes {
		l.t.releaseX(l.m, n)
	}
	l.nodes = nil
}

func (t *Tree) acquireX(m Mtr, no types.PageNo) (*node, error) {
	n, err := t.fetch(no)
	if err != nil {
		return nil, err
	}
	if err := t.store.PLLockX(n.f); err != nil {
		t.store.Unpin(n.f)
		return nil, err
	}
	lockX(m, n, false)
	return n, nil
}

// releaseX drops the local latch, unless m wrote the page and so holds it
// until it commits, and defers the global X latch release to MTR commit
// (post-invalidation).
func (t *Tree) releaseX(m Mtr, n *node) {
	unlockX(m, n)
	m.DeferPLUnlockX(n.f)
	t.store.Unpin(n.f)
}

// lockX write-latches n unless m holds its latch already. With try it
// does not wait, and reports whether n is latched.
func lockX(m Mtr, n *node, try bool) bool {
	switch {
	case m.Holds(n.f):
	case try:
		return n.f.Latch.TryLock()
	default:
		n.f.Latch.Lock()
	}
	return true
}

// unlockX releases a latch lockX took, unless m has written the page
// since: the latch is then m's until it commits.
func unlockX(m Mtr, n *node) {
	if !m.Holds(n.f) {
		n.f.Latch.Unlock()
	}
}

// writePessimistic restarts the operation from the root with write
// latches and X-PL global latches. Full nodes are split preemptively on
// the way down (so the parent of every split always has room and SMOs
// never propagate upward); for deletes, the ancestor chain is retained
// while the child could underflow, so the empty-leaf merge finds its
// parent latched. This is the paper's "pessimistic traversal placing X
// latches as well as X-PL locks on all nodes possibly involved in the
// SMO" (§3.2).
func (t *Tree) writePessimistic(m Mtr, key uint64, val []byte, op writeOp) error {
	for {
		err := t.writePessimisticOnce(m, key, val, op)
		if err != errRetrySMO {
			return err
		}
	}
}

func (t *Tree) writePessimisticOnce(m Mtr, key uint64, val []byte, op writeOp) error {
	var stamp uint64
	getStamp := func() uint64 {
		if stamp == 0 {
			stamp = t.store.SMOStamp()
		}
		return stamp
	}
	inserting := op == opInsert || op == opPut

	// The space header comes first: a split or merge allocates or frees
	// pages through it, and holds it until the MTR commits.
	hdr, err := t.fetch(headerPageNo)
	if err != nil {
		return err
	}
	lockX(m, hdr, false)
	defer func() {
		unlockX(m, hdr)
		t.store.Unpin(hdr.f)
	}()
	retained := &latched{t: t, m: m}
	defer retained.releaseAll()
	cur, err := t.acquireX(m, rootPageNo)
	if err != nil {
		return err
	}
	retained.push(cur)
	if inserting && !t.canAbsorb(cur, val) {
		target, err := t.splitRoot(m, hdr, cur, key, getStamp())
		if err != nil {
			return err
		}
		retained.push(target)
		retained.releaseAncestors() // root is safe now
		cur = target
	}
	for !cur.isLeaf() {
		child, err := t.acquireX(m, cur.descendChild(key))
		if err != nil {
			return err
		}
		if inserting && !t.canAbsorb(child, val) {
			child, err = t.splitChild(m, hdr, cur, child, key, getStamp())
			if err != nil {
				return err
			}
		}
		retained.push(child)
		if t.safeFor(child, op, len(val)) {
			retained.releaseAncestors()
		}
		cur = child
	}

	leaf := cur
	idx, found := leaf.search(key)
	switch op {
	case opInsert, opPut:
		if found {
			if op == opInsert {
				return ErrKeyExists
			}
			if leaf.replaceValue(idx, val) {
				leaf.flush(m)
				return nil
			}
			// Preemptive splitting guaranteed room for delete+reinsert.
			leaf.removeAt(idx)
			idx, _ = leaf.search(key)
		}
		leaf.insertAt(idx, key, val)
		leaf.flush(m)
		return nil
	case opDelete:
		if !found {
			return ErrKeyNotFound
		}
		if leaf.nkeys() == 1 && leaf.pageNo() != rootPageNo {
			// The delete empties the leaf: acquire everything the merge
			// needs before the first mutation (so a latch-order retry
			// leaves no unlogged changes behind), then remove + unlink.
			return t.removeEmptyLeaf(m, hdr, retained, idx, getStamp())
		}
		leaf.removeAt(idx)
		leaf.flush(m)
		return nil
	}
	return nil
}

// safeFor reports whether a node cannot participate in an SMO for the op
// (used to decide which ancestors stay latched during the descent).
func (t *Tree) safeFor(n *node, op writeOp, valLen int) bool {
	switch op {
	case opInsert, opPut:
		if n.isLeaf() {
			return n.fits(valLen)
		}
		return n.fits(4)
	case opDelete:
		return n.nkeys() > 1
	}
	return false
}
