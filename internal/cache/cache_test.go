package cache

import (
	"sync"
	"testing"
	"testing/quick"

	"polardb/internal/types"
)

func pid(n uint32) types.PageID { return types.PageID{Space: 1, No: types.PageNo(n)} }

func frame(n uint32) *Frame {
	return &Frame{ID: pid(n), Data: make([]byte, types.PageSize)}
}

func TestGetMissThenInsertHit(t *testing.T) {
	c := New(4, nil)
	if f := c.Get(pid(1)); f != nil {
		t.Fatal("unexpected hit on empty cache")
	}
	f, err := c.Insert(frame(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.Pins() != 1 {
		t.Fatalf("pins after insert = %d, want 1", f.Pins())
	}
	f.Unpin()
	g := c.Get(pid(1))
	if g != f {
		t.Fatal("Get returned different frame")
	}
	if g.Pins() != 1 {
		t.Fatalf("pins after get = %d", g.Pins())
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInsertDuplicateReturnsExisting(t *testing.T) {
	c := New(4, nil)
	f1, _ := c.Insert(frame(1))
	f2, _ := c.Insert(frame(1))
	if f1 != f2 {
		t.Fatal("duplicate insert created second frame")
	}
	if f1.Pins() != 2 {
		t.Fatalf("pins = %d, want 2", f1.Pins())
	}
}

func TestLRUEviction(t *testing.T) {
	var evicted []types.PageID
	c := New(2, func(f *Frame) { evicted = append(evicted, f.ID) })
	f1, _ := c.Insert(frame(1))
	f2, _ := c.Insert(frame(2))
	f1.Unpin()
	f2.Unpin()
	// Touch 1 so 2 becomes LRU.
	c.Get(pid(1)).Unpin()
	f3, _ := c.Insert(frame(3))
	f3.Unpin()
	if len(evicted) != 1 || evicted[0] != pid(2) {
		t.Fatalf("evicted = %v, want [1:2]", evicted)
	}
	if c.Get(pid(2)) != nil {
		t.Fatal("evicted frame still resident")
	}
}

func TestPinnedFramesNotEvicted(t *testing.T) {
	c := New(2, nil)
	c.Insert(frame(1)) // stays pinned
	c.Insert(frame(2)) // stays pinned
	if _, err := c.Insert(frame(3)); err != ErrAllPinned {
		t.Fatalf("err = %v, want ErrAllPinned", err)
	}
}

func TestDirtyVictimReachesEvictCallback(t *testing.T) {
	var sawDirty bool
	c := New(1, func(f *Frame) { sawDirty = f.Dirty() })
	f1, _ := c.Insert(frame(1))
	f1.MarkDirty()
	f1.Unpin()
	f2, _ := c.Insert(frame(2))
	f2.Unpin()
	if !sawDirty {
		t.Fatal("evict callback did not see dirty frame")
	}
}

func TestRemoveSkipsCallback(t *testing.T) {
	calls := 0
	c := New(4, func(*Frame) { calls++ })
	f, _ := c.Insert(frame(1))
	f.Unpin()
	if got := c.Remove(pid(1)); got != f {
		t.Fatal("Remove returned wrong frame")
	}
	if calls != 0 {
		t.Fatal("Remove invoked evict callback")
	}
	if c.Get(pid(1)) != nil {
		t.Fatal("removed frame still resident")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, nil)
	f, _ := c.Insert(frame(1))
	f.Unpin()
	if !c.Invalidate(pid(1)) {
		t.Fatal("invalidate missed resident frame")
	}
	if !f.Invalid() {
		t.Fatal("invalid bit not set")
	}
	if c.Invalidate(pid(9)) {
		t.Fatal("invalidate hit non-resident frame")
	}
	// A refresh that read its image before a second invalidation arrived
	// must not clear that one too.
	seen := f.Invalidations()
	c.Invalidate(pid(1))
	f.SetCurrent(seen)
	if !f.Invalid() {
		t.Fatal("an invalidation that landed during the refresh was lost")
	}
	f.SetCurrent(f.Invalidations())
	if f.Invalid() {
		t.Fatal("frame still invalid after an undisturbed refresh")
	}
}

func TestResizeShrinkEvicts(t *testing.T) {
	var evicted int
	c := New(4, func(*Frame) { evicted++ })
	for i := uint32(1); i <= 4; i++ {
		f, _ := c.Insert(frame(i))
		f.Unpin()
	}
	if err := c.Resize(2); err != nil {
		t.Fatal(err)
	}
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	if s := c.Stats(); s.Resident != 2 || s.Capacity != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Growing again allows more residents.
	if err := c.Resize(8); err != nil {
		t.Fatal(err)
	}
	for i := uint32(10); i < 16; i++ {
		f, err := c.Insert(frame(i))
		if err != nil {
			t.Fatal(err)
		}
		f.Unpin()
	}
	if s := c.Stats(); s.Resident != 8 {
		t.Fatalf("resident = %d, want 8", s.Resident)
	}
}

func TestEvictAll(t *testing.T) {
	var evicted int
	c := New(4, func(*Frame) { evicted++ })
	for i := uint32(1); i <= 3; i++ {
		f, _ := c.Insert(frame(i))
		f.Unpin()
	}
	pinned, _ := c.Insert(frame(4)) // stays pinned
	c.EvictAll()
	if evicted != 3 {
		t.Fatalf("evicted = %d, want 3", evicted)
	}
	if c.Get(pinned.ID) == nil {
		t.Fatal("pinned frame evicted by EvictAll")
	}
}

func TestForEach(t *testing.T) {
	c := New(4, nil)
	for i := uint32(1); i <= 3; i++ {
		f, _ := c.Insert(frame(i))
		f.Unpin()
	}
	seen := map[types.PageID]bool{}
	c.ForEach(func(f *Frame) { seen[f.ID] = true })
	if len(seen) != 3 {
		t.Fatalf("ForEach saw %d frames, want 3", len(seen))
	}
}

func TestConcurrentGetInsert(t *testing.T) {
	c := New(16, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			for i := uint32(0); i < 200; i++ {
				n := (seed*31 + i) % 32
				f := c.Get(pid(n))
				if f == nil {
					var err error
					f, err = c.Insert(frame(n))
					if err != nil {
						continue
					}
				}
				if f.ID != pid(n) {
					t.Errorf("frame identity mismatch")
					f.Unpin()
					return
				}
				f.Unpin()
			}
		}(uint32(w))
	}
	wg.Wait()
	s := c.Stats()
	if s.Resident > 16 {
		t.Fatalf("resident %d exceeds capacity", s.Resident)
	}
}

// Property: after any sequence of insert/unpin/get operations, resident
// count never exceeds capacity and every Get returns the frame with the
// requested id.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(ops []uint8, capacity uint8) bool {
		capN := int(capacity)%8 + 1
		c := New(capN, nil)
		for _, op := range ops {
			n := uint32(op % 16)
			if f := c.Get(pid(n)); f != nil {
				if f.ID != pid(n) {
					return false
				}
				f.Unpin()
				continue
			}
			f, err := c.Insert(frame(n))
			if err != nil {
				continue
			}
			f.Unpin()
			if c.Stats().Resident > capN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
