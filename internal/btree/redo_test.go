package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"polardb/internal/types"
)

// redoMirror keeps a second copy of every page of a memStore, changed only
// by replaying the records an operation logs. After each operation every
// page the operation fetched must equal its copy: a byte the tree writes
// without a touch is on the page but in no record, and shows up here.
type redoMirror struct {
	t       *testing.T
	tr      *Tree
	s       *memStore
	pages   map[uint64][]byte
	fetched map[types.PageID]bool
}

func newRedoMirror(t *testing.T) *redoMirror {
	tr, s := newTestTree(t)
	r := &redoMirror{t: t, tr: tr, s: s, pages: map[uint64][]byte{}, fetched: map[types.PageID]bool{}}
	for k, f := range s.frames {
		r.pages[k] = bytes.Clone(f.Data)
	}
	s.onFetch = func(id types.PageID) { r.fetched[id] = true }
	return r
}

// do runs op in a fresh MTR, replays its records onto the pre-images and
// compares; it returns the wire bytes the operation logged.
func (r *redoMirror) do(what string, op func(m *memMtr) error) int {
	r.t.Helper()
	m := &memMtr{keep: true}
	if err := op(m); err != nil {
		r.t.Fatalf("%s: %v", what, err)
	}
	for _, rec := range m.log {
		img := r.pages[rec.page.Key()]
		if img == nil {
			img = make([]byte, types.PageSize) // a page the store made fresh
			r.pages[rec.page.Key()] = img
		}
		copy(img[rec.off:], rec.data)
	}
	for id := range r.fetched {
		got, want := r.pages[id.Key()], r.s.frames[id.Key()].Data
		if got == nil {
			got = make([]byte, types.PageSize)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			r.t.Fatalf("%s: page %s differs from its replayed redo from byte %d (page %d, replay %d)",
				what, id, i, want[i], got[i])
		}
		delete(r.fetched, id)
	}
	return m.bytes
}

func (r *redoMirror) root() *node {
	r.t.Helper()
	n, err := r.tr.fetch(rootPageNo)
	if err != nil {
		r.t.Fatal(err)
	}
	r.s.Unpin(n.f)
	delete(r.fetched, n.id())
	return n
}

// TestRedoReplaysEveryWrite: for every kind of write the tree makes, the
// records it logs rebuild each page it wrote, byte for byte, from the page
// as it was before. Inserts go from a leaf root to a three-level tree
// (leaf, root and internal splits, each compacting the page it split);
// then updates in place, updates that grow a value, deletes and patches
// run in a random mix; then, on a second tree, deleting every key empties
// leaves one by one (removeEmptyLeaf, the free list) until the root
// collapses.
func TestRedoReplaysEveryWrite(t *testing.T) {
	r := newRedoMirror(t)
	tr := r.tr
	const n = 6000
	wide := bytes.Repeat([]byte{'w'}, 200)
	for k := uint64(0); k < n; k++ {
		r.do("insert", func(m *memMtr) error { return tr.Insert(m, k, wide) })
	}
	if root := r.root(); root.level() != 2 || root.nkeys() < 2 {
		t.Fatalf("root level %d with %d separators: no internal split below the root", root.level(), root.nkeys())
	}

	rng := rand.New(rand.NewSource(1))
	live := make(map[uint64]bool, n)
	for k := uint64(0); k < n; k++ {
		live[k] = true
	}
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(n + 500))
		fill := bytes.Repeat([]byte{byte('a' + i%26)}, 1+rng.Intn(400))
		switch op := rng.Intn(5); {
		case !live[k]:
			r.do("insert", func(m *memMtr) error { return tr.Insert(m, k, fill) })
			live[k] = true
		case op == 0:
			r.do("update in place", func(m *memMtr) error { return tr.Put(m, k, fill[:min(len(fill), 150)]) })
		case op == 1:
			r.do("grow", func(m *memMtr) error { return tr.Put(m, k, append(fill, wide...)) })
		case op == 2:
			r.do("delete", func(m *memMtr) error { return tr.Delete(m, k) })
			delete(live, k)
		default:
			r.do("patch", func(m *memMtr) error {
				return tr.PatchInPlace(m, k, func(v []byte) (int, []byte, bool) {
					off := rng.Intn(len(v))
					return off, fill[:min(len(fill), len(v)-off)], true
				})
			})
		}
	}
	checkTreeInvariants(t, tr)

	// Emptying leaves: on a two-level tree, since removeEmptyLeaf cannot
	// yet drop the last child of an internal node below the root.
	r = newRedoMirror(t)
	tr = r.tr
	for k := uint64(0); k < 2000; k++ {
		r.do("insert", func(m *memMtr) error { return tr.Insert(m, k, val(k)) })
	}
	for _, k := range rng.Perm(2000) {
		r.do("delete", func(m *memMtr) error { return tr.Delete(m, uint64(k)) })
	}
	hdr, err := tr.fetch(headerPageNo)
	if err != nil {
		t.Fatal(err)
	}
	r.s.Unpin(hdr.f)
	if hdr.u32(offFreeHead) == 0 {
		t.Fatal("deleting every key freed no page")
	}
	if root := r.root(); root.level() != 0 {
		t.Fatalf("root level %d after deleting every key: the root never collapsed", root.level())
	}
	checkTreeInvariants(t, tr)
}

// TestInPlaceUpdateLogsItsSlotAndCell: overwriting a 96-byte value on a
// half-full leaf logs the slot's length and the cell, not the free space
// and the other cells between them.
func TestInPlaceUpdateLogsItsSlotAndCell(t *testing.T) {
	r := newRedoMirror(t)
	tr := r.tr
	v := bytes.Repeat([]byte{'v'}, 96)
	for k := uint64(0); k < 18; k++ {
		r.do("insert", func(m *memMtr) error { return tr.Insert(m, k, v) })
	}
	if free := r.root().freeSpace(); free < types.PageSize/2-200 || free > types.PageSize/2+200 {
		t.Fatalf("leaf has %d free bytes, want about half the page", free)
	}
	w := bytes.Repeat([]byte{'u'}, 96)
	if got := r.do("update in place", func(m *memMtr) error { return tr.Put(m, 9, w) }); got >= 256 {
		t.Fatalf("an in-place update of a 96-byte value logged %d bytes, want < 256", got)
	}
}
