package btree

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"polardb/internal/cache"
	"polardb/internal/types"
)

// On-page layout. Every page reserves a common header; bytes [0,8) hold
// the page LSN maintained by the engine outside redo logging, so tree code
// never touches them.
const (
	offPageLSN   = 0  // 8B, engine-maintained, never logged
	offAllocNext = 8  // 4B, page 0 only: next page number to allocate
	offFreeHead  = 12 // 4B, page 0 only: head of the free-page list
	offNodeType  = 16 // 1B: pageFree / pageLeaf / pageInternal
	offLevel     = 17 // 1B: 0 = leaf
	offNKeys     = 18 // 2B
	offNextLeaf  = 20 // 4B leaf chain (also next-free link on free pages)
	offPrevLeaf  = 24 // 4B
	offSMOStamp  = 28 // 8B: SMO clock value of the last SMO touching this page
	offLeftmost  = 36 // 4B internal only: child for keys below all separators
	offDataStart = 40 // 2B: low end of the cell data region
	offSlots     = 42 // slot array start
	slotSize     = 12 // key (8B) + cell offset (2B) + cell length (2B)
)

// Page types.
const (
	pageFree     = 0
	pageLeaf     = 1
	pageInternal = 2
)

// node wraps a latched frame with layout accessors and a dirty-range
// tracker: mutations touch f.Data directly and are flushed as one redo
// record per touched range, so an in-place update logs its slot and its
// cell, not the free space and the cells between them.
type node struct {
	f     *cache.Frame
	dirty []span // touched [lo, hi) ranges, in touch order
}

type span struct{ lo, hi int }

func wrap(f *cache.Frame) *node { return &node{f: f} }

func (n *node) data() []byte         { return n.f.Data }
func (n *node) id() types.PageID     { return n.f.ID }
func (n *node) pageNo() types.PageNo { return n.f.ID.No }

func (n *node) touch(lo, hi int) { n.dirty = append(n.dirty, span{lo, hi}) }

// flush logs the touched ranges: sorted, with any two at most a record
// header apart coalesced (one record is then cheaper than two), one write
// per range, the bytes taken from the page now.
func (n *node) flush(m Mtr) {
	if len(n.dirty) == 0 {
		return
	}
	slices.SortFunc(n.dirty, func(a, b span) int { return a.lo - b.lo })
	cur := n.dirty[0]
	for _, s := range n.dirty[1:] {
		if s.lo-cur.hi <= types.RedoRecordHeader {
			cur.hi = max(cur.hi, s.hi)
			continue
		}
		m.LogWrite(n.f, cur.lo, n.f.Data[cur.lo:cur.hi])
		cur = s
	}
	m.LogWrite(n.f, cur.lo, n.f.Data[cur.lo:cur.hi])
	n.dirty = n.dirty[:0]
}

func (n *node) u8(off int) uint8 { return n.f.Data[off] }
func (n *node) setU8(off int, v uint8) {
	n.f.Data[off] = v
	n.touch(off, off+1)
}

func (n *node) u16(off int) uint16 { return binary.LittleEndian.Uint16(n.f.Data[off:]) }
func (n *node) setU16(off int, v uint16) {
	binary.LittleEndian.PutUint16(n.f.Data[off:], v)
	n.touch(off, off+2)
}

func (n *node) u32(off int) uint32 { return binary.LittleEndian.Uint32(n.f.Data[off:]) }
func (n *node) setU32(off int, v uint32) {
	binary.LittleEndian.PutUint32(n.f.Data[off:], v)
	n.touch(off, off+4)
}

func (n *node) u64(off int) uint64 { return binary.LittleEndian.Uint64(n.f.Data[off:]) }
func (n *node) setU64(off int, v uint64) {
	binary.LittleEndian.PutUint64(n.f.Data[off:], v)
	n.touch(off, off+8)
}

func (n *node) nodeType() uint8            { return n.u8(offNodeType) }
func (n *node) isLeaf() bool               { return n.nodeType() == pageLeaf }
func (n *node) level() uint8               { return n.u8(offLevel) }
func (n *node) nkeys() int                 { return int(n.u16(offNKeys)) }
func (n *node) setNKeys(v int)             { n.setU16(offNKeys, uint16(v)) }
func (n *node) nextLeaf() types.PageNo     { return types.PageNo(n.u32(offNextLeaf)) }
func (n *node) setNextLeaf(p types.PageNo) { n.setU32(offNextLeaf, uint32(p)) }
func (n *node) prevLeaf() types.PageNo     { return types.PageNo(n.u32(offPrevLeaf)) }
func (n *node) setPrevLeaf(p types.PageNo) { n.setU32(offPrevLeaf, uint32(p)) }
func (n *node) smoStamp() uint64           { return n.u64(offSMOStamp) }
func (n *node) setSMOStamp(v uint64)       { n.setU64(offSMOStamp, v) }
func (n *node) leftmost() types.PageNo     { return types.PageNo(n.u32(offLeftmost)) }
func (n *node) setLeftmost(p types.PageNo) { n.setU32(offLeftmost, uint32(p)) }
func (n *node) dataStart() int             { return int(n.u16(offDataStart)) }
func (n *node) setDataStart(v int)         { n.setU16(offDataStart, uint16(v)) }

// init formats the page as an empty node of the given type/level.
func (n *node) init(typ, level uint8) {
	n.setU8(offNodeType, typ)
	n.setU8(offLevel, level)
	n.setNKeys(0)
	n.setNextLeaf(0)
	n.setPrevLeaf(0)
	n.setSMOStamp(0)
	n.setLeftmost(0)
	n.setDataStart(types.PageSize)
}

func slotOff(i int) int { return offSlots + i*slotSize }

func (n *node) slotKey(i int) uint64 { return n.u64(slotOff(i)) }
func (n *node) slotCell(i int) (off, length int) {
	return int(n.u16(slotOff(i) + 8)), int(n.u16(slotOff(i) + 10))
}

// value returns the i-th cell's bytes (aliasing the page; callers copy).
func (n *node) value(i int) []byte {
	off, length := n.slotCell(i)
	return n.f.Data[off : off+length]
}

// child returns the i-th separator's child page (internal nodes).
func (n *node) child(i int) types.PageNo {
	return types.PageNo(binary.LittleEndian.Uint32(n.value(i)))
}

// search finds the first slot with key >= k; found reports an exact match.
func (n *node) search(k uint64) (idx int, found bool) {
	nk := n.nkeys()
	idx = sort.Search(nk, func(i int) bool { return n.slotKey(i) >= k })
	found = idx < nk && n.slotKey(idx) == k
	return idx, found
}

// childIndex numbers an internal node's children left to right: 0 is the
// leftmost, covering k < key[0]; child i > 0 covers key[i-1] <= k < key[i].
// It returns the number of the child covering k.
func (n *node) childIndex(k uint64) int {
	return sort.Search(n.nkeys(), func(i int) bool { return n.slotKey(i) > k })
}

// childAt returns child number idx (see childIndex).
func (n *node) childAt(idx int) types.PageNo {
	if idx == 0 {
		return n.leftmost()
	}
	return n.child(idx - 1)
}

// descendChild picks the child page covering key k in an internal node.
func (n *node) descendChild(k uint64) types.PageNo { return n.childAt(n.childIndex(k)) }

// route splits keys (ascending, duplicates allowed) among an internal
// node's children: fn is called once per child that covers at least one
// of them, left to right, with the keys it covers.
func (n *node) route(keys []uint64, fn func(child types.PageNo, keys []uint64)) {
	for len(keys) > 0 {
		idx, covered := n.childIndex(keys[0]), len(keys)
		if idx < n.nkeys() {
			bound := n.slotKey(idx)
			covered = sort.Search(len(keys), func(i int) bool { return keys[i] >= bound })
		}
		fn(n.childAt(idx), keys[:covered])
		keys = keys[covered:]
	}
}

// childrenAfter lists, left to right, up to max children of an internal
// node that follow the one covering k and cover some key below to — a
// child whose separator is at or past to holds nothing a scan to `to` reads.
func (n *node) childrenAfter(k, to uint64, max int) []types.PageID {
	var out []types.PageID
	for i := n.childIndex(k); i < n.nkeys() && len(out) < max && n.slotKey(i) < to; i++ {
		out = append(out, types.PageID{Space: n.id().Space, No: n.childAt(i + 1)})
	}
	return out
}

// freeSpace returns contiguous free bytes between slots and cell data.
func (n *node) freeSpace() int {
	return n.dataStart() - slotOff(n.nkeys())
}

// totalFree returns freeSpace plus fragmentation reclaimable by compaction.
func (n *node) totalFree() int {
	used := 0
	for i := 0; i < n.nkeys(); i++ {
		_, l := n.slotCell(i)
		used += l
	}
	return (types.PageSize - n.dataStart() - used) + n.freeSpace()
}

// fits reports whether an entry of valueLen can be inserted, possibly
// after compaction.
func (n *node) fits(valueLen int) bool {
	return n.totalFree() >= slotSize+valueLen
}

// fitsNow reports whether an entry fits without compaction.
func (n *node) fitsNow(valueLen int) bool {
	return n.freeSpace() >= slotSize+valueLen
}

// compact rewrites the cell region contiguously, reclaiming fragmentation.
func (n *node) compact() {
	nk := n.nkeys()
	type ent struct {
		key uint64
		val []byte
	}
	ents := make([]ent, nk)
	for i := 0; i < nk; i++ {
		v := n.value(i)
		c := make([]byte, len(v))
		copy(c, v)
		ents[i] = ent{n.slotKey(i), c}
	}
	n.setDataStart(types.PageSize)
	for i, e := range ents {
		off := n.dataStart() - len(e.val)
		copy(n.f.Data[off:], e.val)
		n.setDataStart(off)
		so := slotOff(i)
		binary.LittleEndian.PutUint64(n.f.Data[so:], e.key)
		binary.LittleEndian.PutUint16(n.f.Data[so+8:], uint16(off))
		binary.LittleEndian.PutUint16(n.f.Data[so+10:], uint16(len(e.val)))
	}
	// The whole slot+cell region changed.
	n.touch(offDataStart, types.PageSize)
}

// insertAt inserts (key, val) at slot idx, shifting later slots right.
// Caller must have verified fits().
func (n *node) insertAt(idx int, key uint64, val []byte) {
	if !n.fitsNow(len(val)) {
		n.compact()
	}
	nk := n.nkeys()
	// Shift slots [idx, nk) right by one.
	src := slotOff(idx)
	end := slotOff(nk)
	copy(n.f.Data[src+slotSize:end+slotSize], n.f.Data[src:end])
	// Write the cell.
	off := n.dataStart() - len(val)
	copy(n.f.Data[off:], val)
	n.setDataStart(off)
	// Write the slot.
	binary.LittleEndian.PutUint64(n.f.Data[src:], key)
	binary.LittleEndian.PutUint16(n.f.Data[src+8:], uint16(off))
	binary.LittleEndian.PutUint16(n.f.Data[src+10:], uint16(len(val)))
	n.setNKeys(nk + 1)
	n.touch(src, end+slotSize)
	n.touch(off, off+len(val))
}

// removeAt deletes slot idx (cell space is reclaimed lazily by compact).
func (n *node) removeAt(idx int) {
	nk := n.nkeys()
	src := slotOff(idx + 1)
	end := slotOff(nk)
	copy(n.f.Data[slotOff(idx):], n.f.Data[src:end])
	n.setNKeys(nk - 1)
	n.touch(slotOff(idx), end)
}

// replaceValue swaps slot idx's value; returns false if it cannot fit.
func (n *node) replaceValue(idx int, val []byte) bool {
	off, length := n.slotCell(idx)
	if len(val) <= length {
		copy(n.f.Data[off:], val)
		so := slotOff(idx)
		binary.LittleEndian.PutUint16(n.f.Data[so+10:], uint16(len(val)))
		n.touch(so+10, so+12)
		n.touch(off, off+len(val))
		return true
	}
	key := n.slotKey(idx)
	if n.totalFree()+length < len(val) {
		return false
	}
	n.removeAt(idx)
	if !n.fitsNow(len(val)) {
		n.compact()
	}
	n.insertAt(idx, key, val)
	return true
}

// insertChild inserts a separator (key -> child) into an internal node.
func (n *node) insertChild(key uint64, childPage types.PageNo) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(childPage))
	idx, found := n.search(key)
	if found {
		panic(fmt.Sprintf("btree: duplicate separator %d in page %s", key, n.id()))
	}
	n.insertAt(idx, key, buf[:4])
}

// sanityCheck validates structural invariants, used by tests and the
// optimistic read path's defensive checks.
func (n *node) sanityCheck() error {
	if t := n.nodeType(); t != pageLeaf && t != pageInternal {
		return fmt.Errorf("btree: page %s has invalid type %d", n.id(), t)
	}
	nk := n.nkeys()
	if slotOff(nk) > types.PageSize || nk < 0 {
		return fmt.Errorf("btree: page %s has invalid nkeys %d", n.id(), nk)
	}
	for i := 0; i+1 < nk; i++ {
		if n.slotKey(i) >= n.slotKey(i+1) {
			return fmt.Errorf("btree: page %s keys out of order at %d", n.id(), i)
		}
	}
	for i := 0; i < nk; i++ {
		off, l := n.slotCell(i)
		if off < offSlots || off+l > types.PageSize {
			return fmt.Errorf("btree: page %s cell %d out of bounds", n.id(), i)
		}
	}
	return nil
}
