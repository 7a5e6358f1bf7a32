package btree

import (
	"errors"
	"fmt"

	"polardb/internal/types"
)

// errRetrySMO makes the whole write operation restart (used when a sibling
// latch cannot be taken in order; rare).
var errRetrySMO = errors.New("btree: smo retry")

// canAbsorb reports whether the node surely accommodates the pending
// insertion (leaf: the value; internal: one more separator) without a
// split. Used for preemptive top-down splitting: splitting full nodes on
// the way down guarantees every split's parent has room, so an SMO never
// has to propagate upward.
func (t *Tree) canAbsorb(n *node, val []byte) bool {
	if n.isLeaf() {
		return n.fits(len(val))
	}
	return n.fits(4)
}

// moveUpperHalf splits src's upper half into dst (freshly initialized) and
// returns the separator key. For leaves the separator is dst's first key
// (kept in dst); for internal nodes the median separator is promoted: its
// child becomes dst's leftmost and the key moves to the parent.
func moveUpperHalf(src, dst *node) (sep uint64) {
	nk := src.nkeys()
	// Find the byte-balanced split point.
	total := 0
	sizes := make([]int, nk)
	for i := 0; i < nk; i++ {
		_, l := src.slotCell(i)
		sizes[i] = l + slotSize
		total += sizes[i]
	}
	acc, splitIdx := 0, 0
	for i := 0; i < nk; i++ {
		acc += sizes[i]
		if acc >= total/2 {
			splitIdx = i + 1
			break
		}
	}
	if splitIdx < 1 {
		splitIdx = 1
	}
	if splitIdx >= nk {
		splitIdx = nk - 1
	}

	if src.isLeaf() {
		dst.init(pageLeaf, 0)
		sep = src.slotKey(splitIdx)
		for i := splitIdx; i < nk; i++ {
			dst.insertAt(i-splitIdx, src.slotKey(i), src.value(i))
		}
		src.setNKeys(splitIdx)
		src.compact()
		return sep
	}
	dst.init(pageInternal, src.level())
	sep = src.slotKey(splitIdx)
	var sepChild [4]byte
	copy(sepChild[:], src.value(splitIdx))
	dst.setLeftmost(types.PageNo(uint32(sepChild[0]) | uint32(sepChild[1])<<8 | uint32(sepChild[2])<<16 | uint32(sepChild[3])<<24))
	for i := splitIdx + 1; i < nk; i++ {
		dst.insertAt(i-splitIdx-1, src.slotKey(i), src.value(i))
	}
	src.setNKeys(splitIdx)
	src.compact()
	return sep
}

// fixRightSiblingPrev points the right neighbour's prev pointer at the new
// leaf inserted before it. The neighbour is to the right, so latching it
// while holding the split pages (the new one only m can reach) respects
// lock order.
func (t *Tree) fixRightSiblingPrev(m Mtr, rightNo types.PageNo, newPrev types.PageNo, stamp uint64) error {
	if rightNo == 0 {
		return nil
	}
	sib, err := t.acquireX(m, rightNo)
	if err != nil {
		return err
	}
	sib.setPrevLeaf(newPrev)
	sib.setSMOStamp(stamp)
	sib.flush(m)
	t.releaseX(m, sib)
	return nil
}

// splitChild splits a full non-root child, inserting the separator into
// parent (which the preemptive descent guarantees has room). It returns
// the side covering key, latched and X-PL'd; the other side is released.
func (t *Tree) splitChild(m Mtr, hdr, parent, child *node, key uint64, stamp uint64) (*node, error) {
	right, err := t.allocXLatched(m, hdr)
	if err != nil {
		return nil, err
	}
	sep := moveUpperHalf(child, right)
	if child.isLeaf() {
		oldNext := child.nextLeaf()
		right.setNextLeaf(oldNext)
		right.setPrevLeaf(child.pageNo())
		child.setNextLeaf(right.pageNo())
		if err := t.fixRightSiblingPrev(m, oldNext, right.pageNo(), stamp); err != nil {
			t.releaseX(m, right)
			return nil, err
		}
	}
	parent.insertChild(sep, right.pageNo())
	parent.setSMOStamp(stamp)
	child.setSMOStamp(stamp)
	right.setSMOStamp(stamp)
	parent.flush(m)
	child.flush(m)
	right.flush(m)
	if key >= sep {
		t.releaseX(m, child)
		return right, nil
	}
	t.releaseX(m, right)
	return child, nil
}

// splitRoot splits a full root in place: the root page keeps its number
// (it may be pointed to by nothing but the tree itself, but a stable root
// avoids a superblock). Contents move into two fresh children and the
// root becomes a one-separator internal node. Returns the child covering
// key, latched and X-PL'd; the root stays latched by the caller.
func (t *Tree) splitRoot(m Mtr, hdr, root *node, key uint64, stamp uint64) (*node, error) {
	left, err := t.allocXLatched(m, hdr)
	if err != nil {
		return nil, err
	}
	right, err := t.allocXLatched(m, hdr)
	if err != nil {
		t.releaseX(m, left)
		return nil, err
	}
	// Copy the root's node content into left, then split.
	left.init(root.nodeType(), root.level())
	if !root.isLeaf() {
		left.setLeftmost(root.leftmost())
	}
	for i := 0; i < root.nkeys(); i++ {
		left.insertAt(i, root.slotKey(i), root.value(i))
	}
	sep := moveUpperHalf(left, right)
	if left.isLeaf() {
		left.setNextLeaf(right.pageNo())
		right.setPrevLeaf(left.pageNo())
	}
	root.init(pageInternal, root.level()+1)
	root.setLeftmost(left.pageNo())
	root.insertChild(sep, right.pageNo())
	root.setSMOStamp(stamp)
	left.setSMOStamp(stamp)
	right.setSMOStamp(stamp)
	root.flush(m)
	left.flush(m)
	right.flush(m)
	if key >= sep {
		t.releaseX(m, left)
		return right, nil
	}
	t.releaseX(m, right)
	return left, nil
}

// removeEmptyLeaf removes a leaf that deleting slot idx empties: unlink
// it from the sibling chain, drop its separator from the parent, free the
// page, and collapse the root if it lost its last separator. The retained
// path holds [.., parent, leaf], all write-latched and X-PL'd, and hdr is
// the space header. All latches are acquired before the first mutation, so
// an errRetrySMO retry never leaves unlogged changes behind.
func (t *Tree) removeEmptyLeaf(m Mtr, hdr *node, retained *latched, idx int, stamp uint64) error {
	nodes := retained.nodes
	if len(nodes) < 2 {
		return fmt.Errorf("btree: removeEmptyLeaf without retained parent")
	}
	leaf := nodes[len(nodes)-1]
	parent := nodes[len(nodes)-2]

	prevNo, nextNo := leaf.prevLeaf(), leaf.nextLeaf()
	// Left sibling: try-latch to respect left-to-right lock order held by
	// other operations; on contention the whole op retries.
	var prev *node
	if prevNo != 0 {
		p, err := t.fetch(prevNo)
		if err != nil {
			return err
		}
		if !lockX(m, p, true) {
			t.store.Unpin(p.f)
			return errRetrySMO
		}
		if err := t.store.PLLockX(p.f); err != nil {
			unlockX(m, p)
			t.store.Unpin(p.f)
			return err
		}
		prev = p
	}
	var next *node
	if nextNo != 0 {
		n, err := t.acquireX(m, nextNo)
		if err != nil {
			if prev != nil {
				t.releaseX(m, prev)
			}
			return err
		}
		next = n
	}
	// Every latch is held; mutations start here.
	leaf.removeAt(idx)
	if prev != nil {
		prev.setNextLeaf(nextNo)
		prev.setSMOStamp(stamp)
		prev.flush(m)
	}
	if next != nil {
		next.setPrevLeaf(prevNo)
		next.setSMOStamp(stamp)
		next.flush(m)
	}

	// Drop the leaf from the parent.
	if parent.leftmost() == leaf.pageNo() {
		if parent.nkeys() == 0 {
			if prev != nil {
				t.releaseX(m, prev)
			}
			if next != nil {
				t.releaseX(m, next)
			}
			return fmt.Errorf("btree: parent %s has no replacement for leftmost", parent.id())
		}
		parent.setLeftmost(parent.child(0))
		parent.removeAt(0)
	} else {
		found := false
		for i := 0; i < parent.nkeys(); i++ {
			if parent.child(i) == leaf.pageNo() {
				parent.removeAt(i)
				found = true
				break
			}
		}
		if !found {
			if prev != nil {
				t.releaseX(m, prev)
			}
			if next != nil {
				t.releaseX(m, next)
			}
			return fmt.Errorf("btree: leaf %s not found in parent %s", leaf.id(), parent.id())
		}
	}
	parent.setSMOStamp(stamp)
	leaf.setSMOStamp(stamp)
	t.freePage(m, hdr, leaf)
	parent.flush(m)
	if prev != nil {
		t.releaseX(m, prev)
	}
	if next != nil {
		t.releaseX(m, next)
	}

	// Root collapse: an internal root left with zero separators is merged
	// with its only child so the tree shrinks.
	if parent.pageNo() == rootPageNo && !parent.isLeaf() && parent.nkeys() == 0 {
		return t.collapseRoot(m, hdr, parent, stamp)
	}
	return nil
}

// collapseRoot copies the root's single child into the root page and
// frees the child. The child has no siblings (it is the only node of its
// level), so no chain fixups are needed. It was the emptied leaf's sibling,
// so m holds it already.
func (t *Tree) collapseRoot(m Mtr, hdr, root *node, stamp uint64) error {
	child, err := t.acquireX(m, root.leftmost())
	if err != nil {
		return err
	}
	root.init(child.nodeType(), child.level())
	if !child.isLeaf() {
		root.setLeftmost(child.leftmost())
	}
	for i := 0; i < child.nkeys(); i++ {
		root.insertAt(i, child.slotKey(i), child.value(i))
	}
	root.setSMOStamp(stamp)
	root.flush(m)
	t.freePage(m, hdr, child)
	child.setSMOStamp(stamp)
	child.flush(m)
	t.releaseX(m, child)
	return nil
}
