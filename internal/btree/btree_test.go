package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"polardb/internal/cache"
	"polardb/internal/types"
)

// memStore is a single-node in-memory Store for unit-testing the tree in
// isolation from the engine: frames live in a map, PL latches count calls,
// LogWrite applies directly.
type memStore struct {
	mu       sync.Mutex
	frames   map[uint64]*cache.Frame
	smo      atomic.Uint64
	readOnly bool

	plX, plS atomic.Int64

	fetchNew        atomic.Int64 // FetchNew calls
	fetchNewWritten atomic.Int64 // ... that named a page the store already held

	onFetch func(types.PageID) // test hook, called before each Fetch

	// A store that records what the tree does to pages marked cold: the
	// Warm calls that named any (cold ids only, like the engine's warmer
	// skips what it holds) and the Fetches that met one no hint had named.
	// A page stops being cold when either happens.
	cold         map[uint64]bool
	warmed       [][]types.PageID
	unhintedMiss []types.PageID
}

func newMemStore() *memStore {
	return &memStore{frames: make(map[uint64]*cache.Frame)}
}

func (s *memStore) Fetch(id types.PageID) (*cache.Frame, error) {
	if s.onFetch != nil {
		s.onFetch(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cold[id.Key()] {
		delete(s.cold, id.Key())
		s.unhintedMiss = append(s.unhintedMiss, id)
	}
	f, ok := s.frames[id.Key()]
	if !ok {
		f = &cache.Frame{ID: id, Data: make([]byte, types.PageSize)}
		s.frames[id.Key()] = f
	}
	f.Pin()
	return f, nil
}

// FetchNew checks the caller's side of the contract: the page must be one
// the store has never seen.
func (s *memStore) FetchNew(id types.PageID) (*cache.Frame, error) {
	s.fetchNew.Add(1)
	s.mu.Lock()
	_, ok := s.frames[id.Key()]
	s.mu.Unlock()
	if ok {
		s.fetchNewWritten.Add(1)
	}
	return s.Fetch(id)
}

func (s *memStore) Warm(ids []types.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var named []types.PageID
	for _, id := range ids {
		if s.cold[id.Key()] {
			delete(s.cold, id.Key())
			named = append(named, id)
		}
	}
	if named != nil {
		s.warmed = append(s.warmed, named)
	}
}

// chill marks every page the store holds cold and forgets what it recorded.
func (s *memStore) chill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cold = make(map[uint64]bool, len(s.frames))
	for k := range s.frames {
		s.cold[k] = true
	}
	s.warmed, s.unhintedMiss = nil, nil
}

func (s *memStore) Unpin(f *cache.Frame)          { f.Unpin() }
func (s *memStore) PLLockX(f *cache.Frame) error  { s.plX.Add(1); return nil }
func (s *memStore) PLUnlockX(f *cache.Frame)      {}
func (s *memStore) PLLockS(f *cache.Frame) error  { s.plS.Add(1); return nil }
func (s *memStore) PLUnlockS(f *cache.Frame)      {}
func (s *memStore) SMOStamp() uint64              { return s.smo.Add(1) }
func (s *memStore) SMOClock(bool) (uint64, error) { return s.smo.Load(), nil }
func (s *memStore) ReadOnly() bool                { return s.readOnly }

// memMtr applies writes directly (they already hit the frame).
type memMtr struct{ records int }

func (m *memMtr) LogWrite(f *cache.Frame, off int, data []byte) {
	copy(f.Data[off:], data)
	m.records++
}

func (m *memMtr) DeferPLUnlockX(f *cache.Frame) {}

func newTestTree(t *testing.T) (*Tree, *memStore) {
	t.Helper()
	s := newMemStore()
	tr, err := Create(s, &memMtr{}, 1)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	return tr, s
}

func val(k uint64) []byte { return []byte(fmt.Sprintf("value-%d", k)) }

func TestInsertGet(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	for k := uint64(1); k <= 10; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for k := uint64(1); k <= 10; k++ {
		v, err := tr.Get(k, Local)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !bytes.Equal(v, val(k)) {
			t.Fatalf("get %d = %q", k, v)
		}
	}
	if _, err := tr.Get(999, Local); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	if err := tr.Insert(m, 1, val(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(m, 1, val(1)); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("err = %v, want ErrKeyExists", err)
	}
}

func TestValueTooBig(t *testing.T) {
	tr, _ := newTestTree(t)
	if err := tr.Insert(&memMtr{}, 1, make([]byte, MaxValueSize+1)); !errors.Is(err, ErrValueTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	s := newMemStore()
	tr, err := Create(s, &memMtr{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.readOnly = true
	if err := tr.Insert(&memMtr{}, 1, val(1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestSplitsManyKeys(t *testing.T) {
	tr, s := newTestTree(t)
	m := &memMtr{}
	const n = 5000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for k := uint64(0); k < n; k++ {
		v, err := tr.Get(k, Local)
		if err != nil || !bytes.Equal(v, val(k)) {
			t.Fatalf("get %d: %q, %v", k, v, err)
		}
	}
	if s.smo.Load() == 0 {
		t.Fatal("no SMOs recorded for 5000 inserts")
	}
	checkTreeInvariants(t, tr)
}

func TestRandomOrderInserts(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	rng := rand.New(rand.NewSource(7))
	keys := rng.Perm(3000)
	for _, k := range keys {
		if err := tr.Insert(m, uint64(k), val(uint64(k))); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	checkTreeInvariants(t, tr)
	count := 0
	prev := int64(-1)
	err := tr.Scan(0, ^uint64(0), Local, func(kv KV) bool {
		if int64(kv.Key) <= prev {
			t.Fatalf("scan out of order: %d after %d", kv.Key, prev)
		}
		prev = int64(kv.Key)
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3000 {
		t.Fatalf("scan count = %d, want 3000", count)
	}
}

func TestPutReplace(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	if err := tr.Put(m, 5, []byte("short")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(m, 5, bytes.Repeat([]byte("L"), 900)); err != nil {
		t.Fatalf("grow: %v", err)
	}
	v, err := tr.Get(5, Local)
	if err != nil || len(v) != 900 {
		t.Fatalf("get after grow: len=%d err=%v", len(v), err)
	}
	if err := tr.Put(m, 5, []byte("tiny")); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	v, _ = tr.Get(5, Local)
	if string(v) != "tiny" {
		t.Fatalf("get after shrink: %q", v)
	}
}

func TestPutReplaceForcesSplit(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	// Fill a leaf with medium values, then grow one so it cannot fit.
	for k := uint64(0); k < 8; k++ {
		if err := tr.Put(m, k, bytes.Repeat([]byte{byte(k)}, 400)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Put(m, 3, bytes.Repeat([]byte{0xEE}, 1000)); err != nil {
		t.Fatalf("grow into split: %v", err)
	}
	v, err := tr.Get(3, Local)
	if err != nil || len(v) != 1000 || v[0] != 0xEE {
		t.Fatalf("get: len=%d err=%v", len(v), err)
	}
	for k := uint64(0); k < 8; k++ {
		if _, err := tr.Get(k, Local); err != nil {
			t.Fatalf("get %d after split: %v", k, err)
		}
	}
	checkTreeInvariants(t, tr)
}

func TestDeleteBasic(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 100; k += 2 {
		if err := tr.Delete(m, k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	for k := uint64(0); k < 100; k++ {
		_, err := tr.Get(k, Local)
		if k%2 == 0 && !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("deleted key %d still present (err=%v)", k, err)
		}
		if k%2 == 1 && err != nil {
			t.Fatalf("kept key %d lost: %v", k, err)
		}
	}
	if err := tr.Delete(m, 0); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	checkTreeInvariants(t, tr)
}

func TestDeleteAllCollapsesTree(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k++ {
		if err := tr.Delete(m, k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	checkTreeInvariants(t, tr)
	// Tree still usable after full drain.
	for k := uint64(0); k < 100; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatalf("reinsert %d: %v", k, err)
		}
	}
	checkTreeInvariants(t, tr)
	count := 0
	_ = tr.Scan(0, ^uint64(0), Local, func(KV) bool { count++; return true })
	if count != 100 {
		t.Fatalf("count after drain+refill = %d", count)
	}
}

// TestAllocFetchNewOnlyBeyondSpaceEnd pins which allocations may skip the
// read: extending the space asks the store for a new page, exactly once
// per page number and never for one the store has seen; a page that comes
// back off the free list was written before and goes through Fetch.
func TestAllocFetchNewOnlyBeyondSpaceEnd(t *testing.T) {
	tr, s := newTestTree(t)
	m := &memMtr{}
	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	extended := s.fetchNew.Load()
	s.mu.Lock()
	pages := int64(len(s.frames))
	s.mu.Unlock()
	if extended == 0 || extended != pages { // Create's header and root included
		t.Fatalf("FetchNew calls = %d with %d pages in the space", extended, pages)
	}
	for k := uint64(0); k < n; k++ {
		if err := tr.Delete(m, k); err != nil {
			t.Fatalf("delete %d: %v", k, err)
		}
	}
	for k := uint64(0); k < n/2; k++ { // refill from the free list
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatalf("reinsert %d: %v", k, err)
		}
	}
	checkTreeInvariants(t, tr)
	if got := s.fetchNew.Load(); got != extended {
		t.Fatalf("FetchNew calls grew %d -> %d while the free list had pages", extended, got)
	}
	if bad := s.fetchNewWritten.Load(); bad != 0 {
		t.Fatalf("FetchNew named %d pages that had been written", bad)
	}
}

func TestScanRange(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	for k := uint64(0); k < 1000; k += 2 {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tr.Scan(100, 200, Local, func(kv KV) bool {
		got = append(got, kv.Key)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 || got[0] != 100 || got[49] != 198 {
		t.Fatalf("scan [100,200): %d keys, first=%d last=%d", len(got), got[0], got[len(got)-1])
	}
	// Early stop.
	n := 0
	_ = tr.Scan(0, ^uint64(0), Local, func(KV) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop delivered %d", n)
	}
}

func TestScanPessimisticTakesSLatches(t *testing.T) {
	tr, s := newTestTree(t)
	m := &memMtr{}
	for k := uint64(0); k < 500; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.plS.Load()
	count := 0
	if err := tr.Scan(0, ^uint64(0), PessimisticS, func(KV) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Fatalf("count = %d", count)
	}
	if s.plS.Load() == before {
		t.Fatal("pessimistic scan took no S latches")
	}
}

func TestOptimisticGetFallsBackOnPersistentConflict(t *testing.T) {
	tr, s := newTestTree(t)
	m := &memMtr{}
	if err := tr.Insert(m, 1, val(1)); err != nil {
		t.Fatal(err)
	}
	// Force a permanently-future SMO stamp on the root so optimistic
	// validation always fails and the read must fall back to PessimisticS.
	f, _ := s.Fetch(types.PageID{Space: 1, No: rootPageNo})
	n := wrap(f)
	n.setSMOStamp(^uint64(0))
	s.Unpin(f)
	v, err := tr.Get(1, Optimistic)
	if err != nil || !bytes.Equal(v, val(1)) {
		t.Fatalf("optimistic get with conflict: %q, %v", v, err)
	}
	if s.plS.Load() == 0 {
		t.Fatal("fallback to pessimistic S latches did not happen")
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	tr, _ := newTestTree(t)
	const writers, perWriter = 4, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			m := &memMtr{}
			for i := uint64(0); i < perWriter; i++ {
				k := base*1_000_000 + i
				if err := tr.Insert(m, k, val(k)); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(uint64(w))
	}
	// A reader scans continuously while writers run, and a batch walk
	// resolves keys to leaves: it visits pages without latch coupling, so
	// this is where it meets pointers gone stale under a split.
	stop := make(chan struct{})
	var scanWG sync.WaitGroup
	scanWG.Add(2)
	go func() {
		defer scanWG.Done()
		batch := make([]uint64, 0, writers*8)
		for w := uint64(0); w < writers; w++ {
			for i := uint64(0); i < 8; i++ {
				batch = append(batch, w*1_000_000+i*perWriter/8)
			}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tr.Leaves(batch, Local); err != nil {
				t.Errorf("concurrent batch walk: %v", err)
				return
			}
		}
	}()
	go func() {
		defer scanWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			prev := int64(-1)
			_ = tr.Scan(0, ^uint64(0), Local, func(kv KV) bool {
				if int64(kv.Key) <= prev {
					t.Errorf("concurrent scan out of order")
					return false
				}
				prev = int64(kv.Key)
				return true
			})
		}
	}()
	wg.Wait()
	close(stop)
	scanWG.Wait()
	count := 0
	_ = tr.Scan(0, ^uint64(0), Local, func(KV) bool { count++; return true })
	if count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", count, writers*perWriter)
	}
	checkTreeInvariants(t, tr)
}

func TestConcurrentMixedOps(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	for k := uint64(0); k < 1000; k++ {
		if err := tr.Insert(m, k, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mtr := &memMtr{}
			for i := 0; i < 500; i++ {
				k := uint64(rng.Intn(2000))
				switch rng.Intn(3) {
				case 0:
					_ = tr.Put(mtr, k, val(k))
				case 1:
					err := tr.Delete(mtr, k)
					if err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("delete: %v", err)
						return
					}
				case 2:
					_, err := tr.Get(k, Local)
					if err != nil && !errors.Is(err, ErrKeyNotFound) {
						t.Errorf("get: %v", err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	checkTreeInvariants(t, tr)
}

// Property: the tree agrees with a map oracle under random op sequences.
func TestOracleProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16
		Len  uint8
	}
	prop := func(ops []op) bool {
		s := newMemStore()
		tr, err := Create(s, &memMtr{}, 1)
		if err != nil {
			return false
		}
		oracle := map[uint64][]byte{}
		m := &memMtr{}
		for _, o := range ops {
			k := uint64(o.Key % 512)
			switch o.Kind % 3 {
			case 0: // put
				v := bytes.Repeat([]byte{byte(o.Len)}, int(o.Len)%64+1)
				if err := tr.Put(m, k, v); err != nil {
					return false
				}
				oracle[k] = v
			case 1: // delete
				err := tr.Delete(m, k)
				_, had := oracle[k]
				if had != (err == nil) {
					return false
				}
				delete(oracle, k)
			case 2: // get
				v, err := tr.Get(k, Local)
				want, had := oracle[k]
				if had != (err == nil) {
					return false
				}
				if had && !bytes.Equal(v, want) {
					return false
				}
			}
		}
		// Final scan must match the oracle exactly.
		got := map[uint64][]byte{}
		if err := tr.Scan(0, ^uint64(0), Local, func(kv KV) bool {
			got[kv.Key] = kv.Value
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if !bytes.Equal(got[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkTreeInvariants walks the whole tree verifying structure: sorted
// keys, separator coverage, level consistency, and leaf-chain integrity.
func checkTreeInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var walk func(no types.PageNo, lo, hi uint64, wantLevel int) (leftLeaf, rightLeaf types.PageNo)
	leafs := []types.PageNo{}
	walk = func(no types.PageNo, lo, hi uint64, wantLevel int) (types.PageNo, types.PageNo) {
		n, err := tr.fetch(no)
		if err != nil {
			t.Fatalf("fetch %d: %v", no, err)
		}
		defer tr.store.Unpin(n.f)
		if err := n.sanityCheck(); err != nil {
			t.Fatal(err)
		}
		if wantLevel >= 0 && int(n.level()) != wantLevel {
			t.Fatalf("page %d level = %d, want %d", no, n.level(), wantLevel)
		}
		for i := 0; i < n.nkeys(); i++ {
			k := n.slotKey(i)
			if k < lo || k >= hi {
				t.Fatalf("page %d key %d outside [%d,%d)", no, k, lo, hi)
			}
		}
		if n.isLeaf() {
			leafs = append(leafs, no)
			return no, no
		}
		childLo := lo
		first, last := types.PageNo(0), types.PageNo(0)
		for i := 0; i <= n.nkeys(); i++ {
			var childNo types.PageNo
			childHi := hi
			if i == 0 {
				childNo = n.leftmost()
			} else {
				childNo = n.child(i - 1)
				childLo = n.slotKey(i - 1)
			}
			if i < n.nkeys() {
				childHi = n.slotKey(i)
			}
			l, r := walk(childNo, childLo, childHi, int(n.level())-1)
			if i == 0 {
				first = l
			}
			last = r
		}
		return first, last
	}
	root, err := tr.fetch(rootPageNo)
	if err != nil {
		t.Fatal(err)
	}
	level := int(root.level())
	tr.store.Unpin(root.f)
	walk(rootPageNo, 0, ^uint64(0), level)
	// Leaf chain equals in-order leaf sequence.
	for i := 0; i+1 < len(leafs); i++ {
		n, _ := tr.fetch(leafs[i])
		next := n.nextLeaf()
		tr.store.Unpin(n.f)
		if next != leafs[i+1] {
			t.Fatalf("leaf chain broken at %d: next=%d want %d", leafs[i], next, leafs[i+1])
		}
		p, _ := tr.fetch(leafs[i+1])
		prev := p.prevLeaf()
		tr.store.Unpin(p.f)
		if prev != leafs[i] {
			t.Fatalf("leaf back-chain broken at %d", leafs[i+1])
		}
	}
}

func TestPatchInPlace(t *testing.T) {
	tr, _ := newTestTree(t)
	m := &memMtr{}
	if err := tr.Insert(m, 7, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	// Patch bytes [2,4) in place.
	err := tr.PatchInPlace(m, 7, func(val []byte) (int, []byte, bool) {
		if string(val) != "abcdef" {
			t.Fatalf("patch saw %q", val)
		}
		return 2, []byte("XY"), true
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tr.Get(7, Local)
	if string(v) != "abXYef" {
		t.Fatalf("after patch: %q", v)
	}
	// ok=false leaves the value untouched.
	if err := tr.PatchInPlace(m, 7, func([]byte) (int, []byte, bool) { return 0, nil, false }); err != nil {
		t.Fatal(err)
	}
	v, _ = tr.Get(7, Local)
	if string(v) != "abXYef" {
		t.Fatalf("no-op patch changed value: %q", v)
	}
	// Out-of-range patch is rejected.
	if err := tr.PatchInPlace(m, 7, func(val []byte) (int, []byte, bool) {
		return len(val) - 1, []byte("TOOLONG"), true
	}); err == nil {
		t.Fatal("out-of-range patch accepted")
	}
	// Missing key.
	if err := tr.PatchInPlace(m, 999, func([]byte) (int, []byte, bool) { return 0, nil, true }); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestPatchInPlaceSurvivesSMOBetweenLatches: PatchInPlace finds its leaf
// under read latches, lets go, and takes the write latch. When the root —
// still a leaf — splits in that gap, the page it latched is an internal
// node and it has to descend again; it used to do so with the write latch
// still held and blocked on the root it had latched itself (the backfill
// worker hung there, and every writer of the table behind it).
func TestPatchInPlaceSurvivesSMOBetweenLatches(t *testing.T) {
	tr, s := newTestTree(t)
	m := &memMtr{}
	for k := uint64(0); k < 10; k++ {
		if err := tr.Insert(m, k*100, val(k)); err != nil {
			t.Fatal(err)
		}
	}
	root := types.PageID{Space: 1, No: rootPageNo}
	fetches := 0
	s.onFetch = func(id types.PageID) {
		if id != root {
			return
		}
		if fetches++; fetches != 2 { // 1: the descent; 2: the re-fetch for the write latch
			return
		}
		s.onFetch = nil
		for k := uint64(1); ; k++ {
			if err := tr.Insert(m, 10000+k, bytes.Repeat([]byte{'s'}, 200)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			f, _ := s.Fetch(root)
			split := !wrap(f).isLeaf()
			s.Unpin(f)
			if split {
				return
			}
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- tr.PatchInPlace(m, 300, func(v []byte) (int, []byte, bool) { return 0, []byte("V"), true })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PatchInPlace deadlocked after the root split under it")
	}
	if v, err := tr.Get(300, Local); err != nil || string(v) != "Value-3" {
		t.Fatalf("after patch: %q, %v", v, err)
	}
	// A key that falls between two leaves is reported missing, not retried.
	if err := tr.PatchInPlace(m, 950, func([]byte) (int, []byte, bool) { return 0, nil, true }); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key between leaves: err = %v", err)
	}
}

// deepTree builds a three-level tree (root, level-1 nodes, leaves) over
// keys 0..n-1 and returns it with n.
func deepTree(t *testing.T) (*Tree, *memStore, uint64) {
	t.Helper()
	tr, s := newTestTree(t)
	m := &memMtr{}
	const n = 6000
	wide := bytes.Repeat([]byte{'w'}, 200) // ~19 rows to a leaf
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(m, k, wide); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.fetch(rootPageNo)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Unpin(root.f)
	if root.level() != 2 {
		t.Fatalf("root level = %d, the tests want a three-level tree", root.level())
	}
	return tr, s, n
}

// leafOf is the reference the batch walk is checked against: one ordinary
// descent per key.
func leafOf(t *testing.T, tr *Tree, key uint64) *node {
	t.Helper()
	rc, err := tr.newReadCtx(Local, false)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := rc.descendToLeaf(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc.release(leaf)
	return leaf
}

// TestLeavesWalksLevelByLevel: a 64-key batch over a three-level tree
// comes back as exactly the leaves one descent per key would reach, each
// once and in key order; the walk reads no leaf, and every cold page below
// the root was named to the store, in one call per level, before the walk
// fetched it.
func TestLeavesWalksLevelByLevel(t *testing.T) {
	tr, s, n := deepTree(t)
	root := tr.pageID(rootPageNo)
	rng := rand.New(rand.NewSource(7))
	keys := []uint64{n + 5, n + 1000} // beyond the last row: the last leaf covers them
	for len(keys) < 60 {
		keys = append(keys, uint64(rng.Int63n(int64(n))))
	}
	keys = append(keys, keys[10], keys[10], keys[20], keys[30]) // duplicates
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var want []types.PageID
	for _, k := range keys {
		if id := leafOf(t, tr, k).id(); len(want) == 0 || want[len(want)-1] != id {
			want = append(want, id)
		}
	}
	if len(want) < 30 {
		t.Fatalf("the batch covers %d leaves; the test wants a wide one", len(want))
	}

	for _, mode := range []TraverseMode{Local, Optimistic, PessimisticS} {
		s.chill()
		latches := s.plS.Load()
		got, err := tr.Leaves(keys, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: leaves = %v, want %v", mode, got, want)
		}
		if len(s.warmed) != 1 || len(s.warmed[0]) < 2 {
			t.Fatalf("%v: Warm calls that named a cold page = %v, want one naming the level-1 nodes", mode, s.warmed)
		}
		if !reflect.DeepEqual(s.unhintedMiss, []types.PageID{root}) {
			t.Fatalf("%v: pages fetched cold without a hint = %v, want only the root", mode, s.unhintedMiss)
		}
		for _, id := range want {
			if !s.cold[id.Key()] {
				t.Fatalf("%v: the walk touched leaf %v", mode, id)
			}
		}
		if took := s.plS.Load() - latches; mode == PessimisticS && took != int64(1+len(s.warmed[0])) {
			t.Fatalf("plock: %d S-latches for the root and %d level-1 nodes", took, len(s.warmed[0]))
		}
		// Everything above the leaves is warm now: the same batch again
		// names nothing and misses nothing.
		again, err := tr.Leaves(keys, mode)
		if err != nil || !reflect.DeepEqual(again, want) || len(s.warmed) != 1 || len(s.unhintedMiss) != 1 {
			t.Fatalf("%v: second walk: %v, err %v, warmed %v, misses %v", mode, again, err, s.warmed, s.unhintedMiss)
		}
	}

	s.chill()
	if got, err := tr.Leaves(nil, Local); err != nil || got != nil || len(s.unhintedMiss) != 0 {
		t.Fatalf("empty batch: %v, %v, fetched %v", got, err, s.unhintedMiss)
	}
	small, _ := newTestTree(t) // the root is the only leaf
	if got, err := small.Leaves([]uint64{1, 2, 3}, Local); err != nil || !reflect.DeepEqual(got, []types.PageID{small.pageID(rootPageNo)}) {
		t.Fatalf("single-leaf tree: %v, %v", got, err)
	}
}

// TestLeavesGivesUpOnPersistentConflict: the walk is a hint, so where a
// read falls back to S-latches it stops and says why.
func TestLeavesGivesUpOnPersistentConflict(t *testing.T) {
	tr, s, _ := deepTree(t)
	f, _ := s.Fetch(tr.pageID(rootPageNo))
	wrap(f).setSMOStamp(^uint64(0))
	s.Unpin(f)
	got, err := tr.Leaves([]uint64{1, 2000, 4000}, Optimistic)
	if !isSMOConflict(err) || got != nil {
		t.Fatalf("leaves = %v, err = %v, want an SMO conflict", got, err)
	}
	if s.plS.Load() != 0 {
		t.Fatal("the walk fell back to S-latches")
	}
}

// TestScanReadsAhead: a range scan names to the store the leaves it is
// about to read — never more than the window, never one that starts at or
// past the end of the range, nothing at all for a point read — and
// delivers what it delivered before.
func TestScanReadsAhead(t *testing.T) {
	tr, s, n := deepTree(t)
	for _, r := range [][2]uint64{{0, n}, {0, ^uint64(0)}, {100, 101}, {1234, 1300}, {2500, 4100}, {n - 3, n + 50}, {n + 1, n + 9}, {700, 700}} {
		from, to := r[0], r[1]
		s.chill()
		var got []uint64
		if err := tr.Scan(from, to, Local, func(kv KV) bool { got = append(got, kv.Key); return true }); err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for k := from; k < to && k < n; k++ {
			want = append(want, k)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan [%d,%d): %d keys (first %v), want %d", from, to, len(got), got[:min(len(got), 3)], len(want))
		}
		named := map[types.PageID]bool{}
		for _, ids := range s.warmed {
			if len(ids) > scanReadAhead {
				t.Fatalf("scan [%d,%d): one hint names %d pages, the window is %d", from, to, len(ids), scanReadAhead)
			}
			for _, id := range ids {
				f, _ := s.Fetch(id)
				leaf := wrap(f)
				if !leaf.isLeaf() || leaf.slotKey(0) >= to || leaf.slotKey(0) <= from || named[id] {
					t.Fatalf("scan [%d,%d): hint names page %v (leaf %v, first key %d, named before %v)",
						from, to, id, leaf.isLeaf(), leaf.slotKey(0), named[id])
				}
				s.Unpin(f)
				named[id] = true
			}
		}
		// Every leaf but the first under each level-1 node was named
		// before the scan fetched it.
		level1 := map[types.PageNo]bool{}
		for _, id := range s.unhintedMiss[1:] {
			f, _ := s.Fetch(id)
			if nd := wrap(f); !nd.isLeaf() {
				level1[id.No] = true
			}
			s.Unpin(f)
		}
		if leaves := len(s.unhintedMiss) - 1 - len(level1); leaves > len(level1) {
			t.Fatalf("scan [%d,%d): %d leaves fetched cold without a hint under %d level-1 nodes: %v",
				from, to, leaves, len(level1), s.unhintedMiss)
		}
	}

	// An early stop has asked for one window at most.
	s.chill()
	_ = tr.Scan(0, ^uint64(0), Local, func(KV) bool { return false })
	if len(s.warmed) != 1 || len(s.warmed[0]) != scanReadAhead {
		t.Fatalf("early stop: hints %v, want one window of %d", s.warmed, scanReadAhead)
	}
	s.chill()
	if _, err := tr.Get(3000, Local); err != nil || len(s.warmed) != 0 {
		t.Fatalf("point read: err %v, hints %v", err, s.warmed)
	}
}
