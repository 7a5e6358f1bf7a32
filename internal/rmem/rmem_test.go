package rmem

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// testPool wires one home (also a slab node), optional extra slab nodes,
// and database-node pools.
type testPool struct {
	fabric *rdma.Fabric
	cfg    Config
	home   *Home
	slabs  map[rdma.NodeID]*SlabNode
}

func newTestPool(t *testing.T, cfg Config, slabPages int) *testPool {
	t.Helper()
	if cfg.InvalidateTimeout == 0 {
		cfg.InvalidateTimeout = 200 * time.Millisecond
	}
	if cfg.LatchTimeout == 0 {
		cfg.LatchTimeout = 2 * time.Second
	}
	tp := &testPool{
		fabric: rdma.NewFabric(rdma.TestConfig()),
		cfg:    cfg,
		slabs:  make(map[rdma.NodeID]*SlabNode),
	}
	homeEP := tp.fabric.MustAttach("home")
	tp.slabs["home"] = NewSlabNode(homeEP)
	tp.home = NewHome(homeEP, cfg, "")
	t.Cleanup(tp.home.Close)
	if slabPages > 0 {
		if _, err := tp.home.AddSlab("home", slabPages); err != nil {
			t.Fatalf("add slab: %v", err)
		}
	}
	return tp
}

func (tp *testPool) addSlabNode(t *testing.T, id rdma.NodeID, pages int) {
	t.Helper()
	ep := tp.fabric.MustAttach(id)
	tp.slabs[id] = NewSlabNode(ep)
	if _, err := tp.home.AddSlab(id, pages); err != nil {
		t.Fatalf("add slab on %s: %v", id, err)
	}
}

func (tp *testPool) client(t *testing.T, id rdma.NodeID) *Pool {
	t.Helper()
	ep := tp.fabric.MustAttach(id)
	p, err := NewPool(ep, tp.cfg, "home")
	if err != nil {
		t.Fatalf("new pool client %s: %v", id, err)
	}
	return p
}

func pid(n uint32) types.PageID { return types.PageID{Space: 1, No: types.PageNo(n)} }

func TestRegisterReadWrite(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")

	res, err := rw.Register(pid(1))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if res.Exists {
		t.Fatal("fresh page reported as existing")
	}
	page := bytes.Repeat([]byte{0xAB}, types.PageSize)
	if err := rw.WritePage(res.Data, page, res.PIB); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, types.PageSize)
	if err := rw.ReadPage(res.Data, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page data mismatch")
	}
	// Second register (another node) sees it existing, same address.
	ro := tp.client(t, "ro")
	res2, err := ro.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Exists || res2.Data != res.Data {
		t.Fatalf("second register: exists=%v addr=%v want %v", res2.Exists, res2.Data, res.Data)
	}
}

func TestAddSlabRejectsEmptySlab(t *testing.T) {
	tp := newTestPool(t, Config{}, 8)
	for _, pages := range []int{0, -1} {
		if _, err := tp.home.AddSlab("home", pages); err == nil {
			t.Fatalf("AddSlab(%d) succeeded", pages)
		}
	}
	if _, err := tp.slabs["home"].handleCreate("home", binary.LittleEndian.AppendUint32(nil, 0)); err == nil {
		t.Fatal("slab.create of 0 pages succeeded")
	}
}

func TestPIBLifecycle(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	res, _ := rw.Register(pid(1))

	// Fresh allocation: stale until first write-back.
	stale, err := rw.PIBStale(res.PIB)
	if err != nil || !stale {
		t.Fatalf("new page PIB stale=%v err=%v, want true", stale, err)
	}
	if err := rw.WritePage(res.Data, make([]byte, types.PageSize), res.PIB); err != nil {
		t.Fatal(err)
	}
	stale, _ = rw.PIBStale(res.PIB)
	if stale {
		t.Fatal("PIB still stale after write-back")
	}
	if err := rw.InvalidateBatch([]types.PageID{pid(1)}); err != nil {
		t.Fatal(err)
	}
	stale, _ = rw.PIBStale(res.PIB)
	if !stale {
		t.Fatal("PIB not stale after invalidate")
	}
}

func TestInvalidationFanOut(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro1 := tp.client(t, "ro1")
	ro2 := tp.client(t, "ro2")
	ro3 := tp.client(t, "ro3")

	var mu sync.Mutex
	got := map[string][]types.PageID{}
	for name, c := range map[string]*Pool{"ro1": ro1, "ro2": ro2, "ro3": ro3} {
		name := name
		c.OnInvalidate(func(p types.PageID) {
			mu.Lock()
			got[name] = append(got[name], p)
			mu.Unlock()
		})
	}
	// ro1 and ro2 hold references; ro3 does not.
	if _, err := rw.Register(pid(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := ro1.Register(pid(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := ro2.Register(pid(7)); err != nil {
		t.Fatal(err)
	}
	if err := rw.InvalidateBatch([]types.PageID{pid(7)}); err != nil {
		t.Fatalf("invalidate: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got["ro1"]) != 1 || got["ro1"][0] != pid(7) {
		t.Fatalf("ro1 callbacks = %v", got["ro1"])
	}
	if len(got["ro2"]) != 1 {
		t.Fatalf("ro2 callbacks = %v", got["ro2"])
	}
	if len(got["ro3"]) != 0 {
		t.Fatalf("ro3 (no reference) got invalidation: %v", got["ro3"])
	}
}

// TestCallbacksReinstalledUnderInvalidations: a pool's callbacks may be
// installed while the home calls them, as a promotion does when it builds
// the new RW's engine on the RO's pool; nil clears them. Run it with -race.
func TestCallbacksReinstalledUnderInvalidations(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if err := rw.InvalidateBatch([]types.PageID{pid(1)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < 200; i++ {
		ro.OnInvalidate(func(types.PageID) { calls.Add(1) })
		ro.OnSlabFailure(func([]types.PageID) {})
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	before := calls.Load()
	if err := rw.InvalidateBatch([]types.PageID{pid(1)}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatalf("the installed callback ran %d times for one invalidation, want 1", calls.Load()-before)
	}
	ro.OnInvalidate(nil)
	if err := rw.InvalidateBatch([]types.PageID{pid(1)}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before+1 {
		t.Fatal("a cleared callback ran")
	}
}

func TestInvalidateBatchSingleRoundTrip(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro1 := tp.client(t, "ro1")
	ro2 := tp.client(t, "ro2")

	var mu sync.Mutex
	got := map[string][]types.PageID{}
	for name, c := range map[string]*Pool{"ro1": ro1, "ro2": ro2} {
		name := name
		c.OnInvalidate(func(p types.PageID) {
			mu.Lock()
			got[name] = append(got[name], p)
			mu.Unlock()
		})
	}
	const n = 5
	pages := make([]types.PageID, 0, n)
	for i := uint32(0); i < n; i++ {
		pages = append(pages, pid(i))
		for _, c := range []*Pool{rw, ro1, ro2} {
			if _, err := c.Register(pid(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The whole MTR-sized batch must cost one page_invalidate round trip
	// and one callback per distinct holder — not one per (page, holder).
	if err := rw.InvalidateBatch(pages); err != nil {
		t.Fatalf("invalidate batch: %v", err)
	}
	met := rw.ep.Metrics()
	if sent := met.Counter("rmem.invalidate.sent").Load(); sent != 1 {
		t.Fatalf("invalidate.sent = %d, want 1 round trip for the whole batch", sent)
	}
	if sp := met.Counter("rmem.invalidate.sent_pages").Load(); sp != n {
		t.Fatalf("invalidate.sent_pages = %d, want %d", sp, n)
	}
	homeMet := tp.home.ep.Metrics()
	if fan := homeMet.Counter("rmem.home.inv_fanout").Load(); fan != 2 {
		t.Fatalf("home.inv_fanout = %d, want 2 (one callback per distinct holder)", fan)
	}
	if inv := homeMet.Counter("rmem.home.invalidations").Load(); inv != n {
		t.Fatalf("home.invalidations = %d, want %d (one per page)", inv, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"ro1", "ro2"} {
		if len(got[name]) != n {
			t.Fatalf("%s received %d invalidations, want %d", name, len(got[name]), n)
		}
	}
	for _, c := range []*Pool{ro1, ro2} {
		if recv := c.ep.Metrics().Counter("rmem.invalidate.recv").Load(); recv != 1 {
			t.Fatalf("invalidate.recv = %d, want 1 batched callback", recv)
		}
	}
}

func TestInvalidateKicksUnresponsiveNode(t *testing.T) {
	tp := newTestPool(t, Config{InvalidateTimeout: 50 * time.Millisecond}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	if _, err := rw.Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	// RO dies; invalidation must still succeed and the node be kicked.
	ro.ep.Kill()
	if err := rw.InvalidateBatch([]types.PageID{pid(1)}); err != nil {
		t.Fatalf("invalidate with dead RO: %v", err)
	}
	if !tp.home.isKicked("ro") || tp.home.isKicked("rw") {
		t.Fatalf("kicked: ro %v, rw %v; want only ro", tp.home.isKicked("ro"), tp.home.isKicked("rw"))
	}
	if refs := homeRefs(tp.home, "ro"); len(refs) != 0 {
		t.Fatalf("the kicked node still holds %v", refs)
	}
}

// TestUnregisterMakesPageEvictable: with every slot referenced, a register
// fails once the home's reclaim finds nothing idle; once the holder's last
// user lets go of one page, the next register's reclaim frees that slot.
func TestUnregisterMakesPageEvictable(t *testing.T) {
	tp := newTestPool(t, Config{}, 4)
	rw := tp.client(t, "rw")
	// Fill the pool with 4 referenced pages.
	for i := uint32(0); i < 4; i++ {
		if _, err := rw.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A 5th registration fails: everything is held.
	if _, err := rw.Register(pid(99)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// An idle page is reclaimed, then evicted, for the next one.
	if err := rw.Unregister(pid(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Register(pid(99)); err != nil {
		t.Fatalf("register after unregister: %v", err)
	}
	home := tp.home.ep.Metrics().Snapshot()
	if ev, reclaims, freed := home.Counter("rmem.home.evictions"), home.Counter("rmem.home.reclaims"), home.Counter("rmem.home.reclaimed_pages"); ev != 1 || reclaims != 2 || freed != 1 {
		t.Fatalf("evictions = %d, reclaim callbacks = %d freeing %d pages; want 1, 2 and 1", ev, reclaims, freed)
	}
	if refs := homeRefs(tp.home, "rw"); len(refs) != 4 || refs[pid(0)] {
		t.Fatalf("rw's references = %v, want pages 1-3 and 99", refs)
	}
	checkTableMatchesHome(t, tp, rw)
}

// TestLRUEvictionOrder: a reclaim hands the home a holder's idle pages
// oldest first, and the home evicts in that order.
func TestLRUEvictionOrder(t *testing.T) {
	tp := newTestPool(t, Config{}, 2)
	rw := tp.client(t, "rw")
	// Register and release pages 1, 2 (idle in that order).
	for _, n := range []uint32{1, 2} {
		if _, err := rw.Register(pid(n)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Unregister(pid(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Page 3 reclaims both and evicts page 1 (oldest).
	if _, err := rw.Register(pid(3)); err != nil {
		t.Fatal(err)
	}
	tp.home.mu.Lock()
	_, has1 := tp.home.tab.pat[pid(1).Key()]
	_, has2 := tp.home.tab.pat[pid(2).Key()]
	tp.home.mu.Unlock()
	if has1 || !has2 {
		t.Fatalf("pool holds page 1: %v, page 2: %v; want page 1 evicted, page 2 kept", has1, has2)
	}
	res1, err := rw.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Exists {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestElasticGrowShrink(t *testing.T) {
	tp := newTestPool(t, Config{}, 8)
	tp.addSlabNode(t, "slab1", 8)
	if got := tp.home.TotalSlots(); got != 16 {
		t.Fatalf("slots after grow = %d, want 16", got)
	}
	rw := tp.client(t, "rw")
	for i := uint32(0); i < 12; i++ {
		if _, err := rw.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Unregister(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Idle registrations still pin their pages; scale-in flushes first
	// (cluster.ShrinkMemory does it for every node).
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	total, err := tp.home.Shrink(8)
	if err != nil {
		t.Fatal(err)
	}
	if total != 8 {
		t.Fatalf("slots after shrink = %d, want 8", total)
	}
	// Pool still functions after shrink.
	if _, err := rw.Register(pid(100)); err != nil {
		t.Fatalf("register after shrink: %v", err)
	}
}

// TestShrinkPurgesReferencedPages: Shrink below the referenced set still
// reaches its target. The emptiest slab leaves the pool, each holder of its
// pages is told once with its whole list, and a purged page registered
// again gets a slot on the slab that stays.
func TestShrinkPurgesReferencedPages(t *testing.T) {
	tp := newTestPool(t, Config{}, 8)
	tp.addSlabNode(t, "slab1", 8)
	rw, ro := tp.client(t, "rw"), tp.client(t, "ro")
	told := map[*Pool][][]types.PageID{}
	var mu sync.Mutex
	for _, c := range []*Pool{rw, ro} {
		c.OnSlabFailure(func(lost []types.PageID) {
			mu.Lock()
			told[c] = append(told[c], lost)
			mu.Unlock()
		})
	}
	addrs := map[uint32]rdma.Addr{}
	for i := uint32(0); i < 10; i++ { // best fit: 0-7 on the home's slab, 8 and 9 on slab1
		res, err := rw.Register(pid(i))
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = res.Data
	}
	for _, no := range []uint32{0, 8, 9} {
		if _, err := ro.Register(pid(no)); err != nil {
			t.Fatal(err)
		}
	}
	if addrs[8].Node != "slab1" || addrs[9].Node != "slab1" {
		t.Fatalf("pages 8, 9 at %v, %v; want both on slab1", addrs[8], addrs[9])
	}
	for _, no := range []uint32{1, 2} { // unreferenced: Shrink evicts them first
		if err := rw.Unregister(pid(no)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	total, err := tp.home.Shrink(8)
	if err != nil || total != 8 {
		t.Fatalf("Shrink(8) = %d, %v; want 8", total, err)
	}
	if s := tp.home.Stats(); s.Slabs != 1 || s.UsedSlots != 6 {
		t.Fatalf("after Shrink: %+v, want 1 slab holding the 6 pages left", s)
	}
	mu.Lock()
	for _, c := range []*Pool{rw, ro} {
		if len(told[c]) != 1 {
			t.Fatalf("%s got %d cb.slabfail calls %v, want one", c.ep.ID(), len(told[c]), told[c])
		}
		got := told[c][0]
		slices.SortFunc(got, func(a, b types.PageID) int { return cmp.Compare(a.No, b.No) })
		if want := []types.PageID{pid(8), pid(9)}; !slices.Equal(got, want) {
			t.Errorf("%s was told %v, want %v", c.ep.ID(), got, want)
		}
	}
	mu.Unlock()
	checkTableMatchesHome(t, tp, rw)
	checkTableMatchesHome(t, tp, ro)
	ops := counter(rw, "rmem.register.ops")
	again, err := rw.Register(pid(9))
	if err != nil {
		t.Fatal(err)
	}
	if counter(rw, "rmem.register.ops") != ops+1 || again.Exists || again.Data.Node != "home" {
		t.Fatalf("re-register of a purged page = %+v; want a new slot on the home's slab, from the home", again)
	}
}

// TestPurgeWaitsForWriteBack: a holder drops a purged entry only once the
// write-backs through it are done, so none lands in the slot after the
// home has given it to another page; a write-back after the drop finds no
// entry and writes nothing.
func TestPurgeWaitsForWriteBack(t *testing.T) {
	tp := newTestPool(t, Config{InvalidateTimeout: 5 * time.Second}, 4)
	a := tp.client(t, "a")
	if _, err := a.Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, types.PageSize)
	if err := a.WriteBack(pid(1), img); err != nil {
		t.Fatal(err)
	}
	setWrites := func(d int) {
		a.mu.Lock()
		a.regs[pid(1)].writes += d
		a.plChanged.Broadcast()
		a.mu.Unlock()
	}
	setWrites(1) // a write-back on the wire
	purged := make(chan struct{})
	go func() {
		tp.home.HandleSlabFailure("home")
		close(purged)
	}()
	select {
	case <-purged:
		t.Fatal("the purge finished while a write-back through the entry was on the wire")
	case <-time.After(50 * time.Millisecond):
	}
	if _, ok := a.Lookup(pid(1)); !ok {
		t.Fatal("the entry was dropped under a write-back")
	}
	setWrites(-1)
	<-purged
	if err := a.WriteBack(pid(1), img); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("write-back after the purge: %v, want ErrNotRegistered", err)
	}
}

// TestPurgeFreesSlotsAfterHoldersAreTold: a purge gives a page's slab slot
// and PIB word to another page only after every holder has been told. Here
// holder A's callback is still running while node B takes over at a tail
// below A's page and fills the pool with its own pages; A's old addresses
// must probe stale and never show B's bytes meanwhile.
func TestPurgeFreesSlotsAfterHoldersAreTold(t *testing.T) {
	tp := newTestPool(t, Config{InvalidateTimeout: 5 * time.Second}, 4)
	a, b := tp.client(t, "a"), tp.client(t, "b")
	res, err := a.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, types.PageSize)
	binary.LittleEndian.PutUint64(img, 100) // page LSN
	if err := a.WritePage(res.Data, img, res.PIB); err != nil {
		t.Fatal(err)
	}
	told, release := make(chan struct{}), make(chan struct{})
	a.OnSlabFailure(func([]types.PageID) {
		close(told)
		<-release
	})
	purged := make(chan []types.PageID, 1)
	go func() {
		pages, err := b.Takeover("", 50)
		if err != nil {
			t.Error(err)
		}
		purged <- pages
	}()
	<-told
	mine := bytes.Repeat([]byte{0xB0}, types.PageSize)
	filled := 0
	for no := uint32(2); ; no++ {
		r, err := b.Register(pid(no))
		if errors.Is(err, ErrOutOfMemory) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WritePage(r.Data, mine, r.PIB); err != nil {
			t.Fatal(err)
		}
		filled++
	}
	if filled != 3 {
		t.Errorf("B filled %d slots of 4 while A's page was being purged, want 3", filled)
	}
	if stale, err := a.PIBStale(res.PIB); err != nil || !stale {
		t.Errorf("A's old PIB word reads stale=%v (err %v) before A was done; want stale", stale, err)
	}
	got := make([]byte, types.PageSize)
	if err := a.ReadPage(res.Data, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, mine) {
		t.Error("A's old slot holds B's bytes before A was done with its callback")
	}
	close(release)
	if pages := <-purged; len(pages) != 1 || pages[0] != pid(1) {
		t.Fatalf("takeover purged %v, want [%s]", pages, pid(1))
	}
	if _, err := b.Register(pid(99)); err != nil {
		t.Fatalf("the purged page's slot did not come back: %v", err)
	}
}

func TestPLFastPathXAndS(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	res, _ := rw.Register(pid(1))
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}

	if err := rw.PL().LockX(pid(1), res.PL); err != nil {
		t.Fatalf("lockX: %v", err)
	}
	// Non-sticky unlock releases immediately; RO can then S-lock fast.
	if err := rw.PL().UnlockX(pid(1), false); err != nil {
		t.Fatal(err)
	}
	if err := ro.PL().LockS(pid(1), res.PL); err != nil {
		t.Fatalf("lockS: %v", err)
	}
	if err := ro.PL().UnlockS(pid(1)); err != nil {
		t.Fatal(err)
	}
	st := rw.ep.Metrics().Snapshot()
	if fast, slow := st.Counter("rmem.pl.fast"), st.Counter("rmem.pl.slow"); fast != 1 || slow != 0 {
		t.Fatalf("rw latches = %d fast, %d slow, want 1 fast, 0 slow", fast, slow)
	}
}

func TestPLStickyRevocation(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	res, _ := rw.Register(pid(1))
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}

	// RW takes X and releases sticky: the word stays X-held.
	if err := rw.PL().LockX(pid(1), res.PL); err != nil {
		t.Fatal(err)
	}
	if err := rw.PL().UnlockX(pid(1), true); err != nil {
		t.Fatal(err)
	}
	if rw.PL().HeldCount() != 1 {
		t.Fatal("sticky latch not retained")
	}
	// Re-locking is free (sticky hit, no network).
	if err := rw.PL().LockX(pid(1), res.PL); err != nil {
		t.Fatal(err)
	}
	if err := rw.PL().UnlockX(pid(1), true); err != nil {
		t.Fatal(err)
	}
	if n := rw.ep.Metrics().Snapshot().Counter("rmem.pl.sticky"); n != 1 {
		t.Fatalf("sticky hits = %d, want 1", n)
	}
	// RO's S-lock goes slow path: home revokes the sticky X from RW.
	if err := ro.PL().LockS(pid(1), res.PL); err != nil {
		t.Fatalf("lockS with sticky X held: %v", err)
	}
	if rw.PL().HeldCount() != 0 {
		t.Fatal("sticky latch not revoked")
	}
	if n := rw.ep.Metrics().Snapshot().Counter("rmem.pl.revoke"); n != 1 {
		t.Fatalf("revokes = %d, want 1", n)
	}
	if err := ro.PL().UnlockS(pid(1)); err != nil {
		t.Fatal(err)
	}
}

func TestPLXWaitsForSDrain(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	res, _ := rw.Register(pid(1))
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}

	if err := ro.PL().LockS(pid(1), res.PL); err != nil {
		t.Fatal(err)
	}
	xAcquired := make(chan error, 1)
	go func() { xAcquired <- rw.PL().LockX(pid(1), res.PL) }()
	select {
	case err := <-xAcquired:
		t.Fatalf("X granted while S held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := ro.PL().UnlockS(pid(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-xAcquired; err != nil {
		t.Fatalf("X after S drain: %v", err)
	}
	if err := rw.PL().UnlockX(pid(1), false); err != nil {
		t.Fatal(err)
	}
}

func TestPLPinnedXBlocksRevokeUntilUnpin(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	res, _ := rw.Register(pid(1))
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}

	if err := rw.PL().LockX(pid(1), res.PL); err != nil {
		t.Fatal(err)
	}
	sAcquired := make(chan error, 1)
	go func() { sAcquired <- ro.PL().LockS(pid(1), res.PL) }()
	select {
	case err := <-sAcquired:
		t.Fatalf("S granted while X pinned (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := rw.PL().UnlockX(pid(1), true); err != nil { // sticky, but revoke pending
		t.Fatal(err)
	}
	if err := <-sAcquired; err != nil {
		t.Fatalf("S after X unpin: %v", err)
	}
	if err := ro.PL().UnlockS(pid(1)); err != nil {
		t.Fatal(err)
	}
}

// TestPLConcurrentLatchesOfOnePage: critical sections of one node on one
// page overlap (readers on an RO, SMOs on an RW). Each latch word must
// come back to 0 once every one of them has ended, with no record left.
func TestPLConcurrentLatchesOfOnePage(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	res, _ := rw.Register(pid(1))
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	overlap := func(lock, unlock func() error) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := lock(); err != nil {
						t.Errorf("lock: %v", err)
						return
					}
					if err := unlock(); err != nil {
						t.Errorf("unlock: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	overlap(func() error { return ro.PL().LockS(pid(1), res.PL) }, func() error { return ro.PL().UnlockS(pid(1)) })
	overlap(func() error { return rw.PL().LockX(pid(1), res.PL) }, func() error { return rw.PL().UnlockX(pid(1), false) })
	if w, err := rw.ep.Load64(res.PL); err != nil || w != 0 {
		t.Errorf("latch word = %#x (err %v) after every critical section ended, want 0", w, err)
	}
	if n, m := ro.PL().HeldCount(), rw.PL().HeldCount(); n != 0 || m != 0 {
		t.Errorf("latch records left: ro %d, rw %d; want none", n, m)
	}
}

// TestReleaseNodeLatches: a takeover releases the crashed RW's X latch on
// a page it keeps in the pool, so the next S latch is one CAS, not a
// negotiation with a dead owner, and drops the crashed RW's references.
func TestReleaseNodeLatches(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	ro := tp.client(t, "ro")
	res, _ := rw.Register(pid(1))
	if err := rw.WritePage(res.Data, make([]byte, types.PageSize), res.PIB); err != nil { // fresh, LSN 0
		t.Fatal(err)
	}
	if _, err := ro.Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	if err := rw.PL().LockX(pid(1), res.PL); err != nil {
		t.Fatal(err)
	}
	// RW crashes; the RO taking over releases its latches.
	rw.ep.Kill()
	purged, err := ro.Takeover("rw", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(purged) != 0 {
		t.Fatalf("takeover purged %v; a fresh page at the tail stays", purged)
	}
	if !tp.home.isKicked("rw") || len(homeRefs(tp.home, "rw")) != 0 {
		t.Fatalf("the crashed RW is not kicked: kicked %v, refs %v", tp.home.isKicked("rw"), homeRefs(tp.home, "rw"))
	}
	before := ro.ep.Metrics().Snapshot()
	if err := ro.PL().LockS(pid(1), res.PL); err != nil {
		t.Fatalf("S after force release: %v", err)
	}
	d := ro.ep.Metrics().Snapshot().Sub(before)
	if fast, slow := d.Counter("rmem.pl.fast"), d.Counter("rmem.pl.slow"); fast != 1 || slow != 0 {
		t.Fatalf("S latch after takeover: %d fast, %d slow; want the CAS fast path (the X word is cleared)", fast, slow)
	}
}

// TestTakeoverTellsEachHolderOnce: a takeover purges exactly the pages
// that are stale or ahead of the tail, and each holder hears of all of its
// purged pages in one cb.slabfail.
func TestTakeoverTellsEachHolderOnce(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	const tail = 50
	lsns := map[uint32]uint64{1: 10, 2: 50, 3: 0, 4: 51, 5: 900, 6: 10}
	for no, lsn := range lsns {
		res, err := rw.Register(pid(no))
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, types.PageSize)
		binary.LittleEndian.PutUint64(img, lsn)
		if err := rw.WritePage(res.Data, img, res.PIB); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.InvalidateBatch([]types.PageID{pid(6)}); err != nil {
		t.Fatal(err)
	}
	holders := map[*Pool][]uint32{tp.client(t, "ro1"): {1, 2, 4, 5, 6}, tp.client(t, "ro2"): {3, 4, 6}}
	told := map[*Pool][][]types.PageID{}
	var mu sync.Mutex
	for c, pages := range holders {
		c.OnSlabFailure(func(lost []types.PageID) {
			mu.Lock()
			told[c] = append(told[c], lost)
			mu.Unlock()
		})
		for _, no := range pages {
			if _, err := c.Register(pid(no)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rw.ep.Kill()
	taker := tp.client(t, "rw2")
	purged, err := taker.Takeover("rw", tail)
	if err != nil {
		t.Fatal(err)
	}
	wantPurged := map[uint32]bool{4: true, 5: true, 6: true}
	slices.SortFunc(purged, func(a, b types.PageID) int { return cmp.Compare(a.No, b.No) })
	if want := []types.PageID{pid(4), pid(5), pid(6)}; !slices.Equal(purged, want) {
		t.Fatalf("purged %v, want %v (stale or ahead of tail %d)", purged, want, tail)
	}
	tp.home.mu.Lock()
	for no := range lsns {
		if mapped := tp.home.tab.pat[pid(no).Key()] != nil; mapped == wantPurged[no] {
			t.Errorf("%s: still mapped = %v after the takeover", pid(no), mapped)
		}
	}
	tp.home.mu.Unlock()
	mu.Lock()
	defer mu.Unlock()
	for c, pages := range holders {
		var want []types.PageID
		for _, no := range pages {
			if wantPurged[no] {
				want = append(want, pid(no))
			}
		}
		if len(told[c]) != 1 {
			t.Fatalf("%s got %d cb.slabfail calls %v, want one", c.ep.ID(), len(told[c]), told[c])
		}
		got := told[c][0]
		slices.SortFunc(got, func(a, b types.PageID) int { return cmp.Compare(a.No, b.No) })
		if !slices.Equal(got, want) {
			t.Errorf("%s was told %v, want %v", c.ep.ID(), got, want)
		}
		if n := counter(c, "rmem.slabfail.pages"); n != uint64(len(want)) {
			t.Errorf("%s: rmem.slabfail.pages = %d, want %d", c.ep.ID(), n, len(want))
		}
		checkTableMatchesHome(t, tp, c)
	}
}

func TestSlabNodeFailure(t *testing.T) {
	tp := newTestPool(t, Config{}, 4)
	tp.addSlabNode(t, "slab1", 4)
	rw := tp.client(t, "rw")

	var lostMu sync.Mutex
	var lost []types.PageID
	rw.OnSlabFailure(func(pages []types.PageID) {
		lostMu.Lock()
		lost = append(lost, pages...)
		lostMu.Unlock()
	})
	// Fill both slabs.
	onSlab1 := 0
	for i := uint32(0); i < 8; i++ {
		res, err := rw.Register(pid(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Data.Node == "slab1" {
			onSlab1++
		}
	}
	if onSlab1 == 0 {
		t.Fatal("no pages placed on slab1; test cannot proceed")
	}
	tp.fabric.Detach("slab1")
	tp.home.HandleSlabFailure("slab1")
	lostMu.Lock()
	nLost := len(lost)
	lostMu.Unlock()
	if nLost != onSlab1 {
		t.Fatalf("lost callbacks = %d, want %d", nLost, onSlab1)
	}
	// Pool shrank but keeps serving from the surviving slab.
	if tp.home.TotalSlots() != 4 {
		t.Fatalf("slots = %d, want 4", tp.home.TotalSlots())
	}
	// Lost pages can be re-registered (fresh) into the surviving slab after
	// freeing references (the failed pages' refs were dropped with them).
	for i := uint32(0); i < 8; i++ {
		_ = rw.Unregister(pid(i))
	}
	res, err := rw.Register(pid(0))
	if err != nil {
		t.Fatalf("re-register after slab failure: %v", err)
	}
	if res.Data.Node == "slab1" {
		t.Fatal("page placed on dead slab node")
	}
}

func TestHomeReplicationAndPromotion(t *testing.T) {
	fabric := rdma.NewFabric(rdma.TestConfig())
	cfg := Config{InvalidateTimeout: 200 * time.Millisecond, LatchTimeout: time.Second}
	cfg.applyDefaults()

	masterEP := fabric.MustAttach("home")
	slaveEP := fabric.MustAttach("home2")
	NewSlabNode(masterEP)
	slabEP := fabric.MustAttach("slab1")
	NewSlabNode(slabEP)

	slave := NewSlaveHome(slaveEP, cfg)
	defer slave.Close()
	master := NewHome(masterEP, cfg, "home2")
	defer master.Close()
	if _, err := master.AddSlab("slab1", 8); err != nil {
		t.Fatal(err)
	}

	dbEP := fabric.MustAttach("rw")
	rw, err := NewPool(dbEP, cfg, "home")
	if err != nil {
		t.Fatal(err)
	}
	res, err := rw.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x42}, types.PageSize)
	if err := rw.WritePage(res.Data, page, res.PIB); err != nil {
		t.Fatal(err)
	}
	// Slave rejects clients while passive.
	ro, err2 := NewPool(fabric.MustAttach("probe"), cfg, "home2")
	if err2 == nil {
		_ = ro
		t.Fatal("passive slave accepted a client")
	}

	// Master crashes; promote the slave and switch the client over.
	masterEP.Kill()
	slave.Promote()
	rw.SwitchHome("home2")
	// A node the master never met reaches the promoted home before the
	// RW's first call there; it must not be given the RW's owner index.
	late, err := NewPool(fabric.MustAttach("ro"), cfg, "home2")
	if err != nil {
		t.Fatal(err)
	}

	res2, err := rw.Register(pid(1))
	if err != nil {
		t.Fatalf("register via promoted slave: %v", err)
	}
	if !res2.Exists {
		t.Fatal("replicated PAT lost the page")
	}
	if res2.Data != res.Data {
		t.Fatalf("data address changed: %v -> %v (slot mapping not replicated)", res.Data, res2.Data)
	}
	// Data survives (it lives on the slab node, not the home).
	got := make([]byte, types.PageSize)
	if err := rw.ReadPage(res2.Data, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page data lost across home failover")
	}
	// PIB is conservatively stale after promotion.
	stale, err := rw.PIBStale(res2.PIB)
	if err != nil || !stale {
		t.Fatalf("PIB after promotion stale=%v err=%v, want true", stale, err)
	}
	// The RW's X word carries the index the master gave it. The promoted
	// home must resolve that index to the RW, or the revoke goes to the
	// wrong node and the RO's S latch times out.
	if err := rw.PL().LockX(pid(1), res2.PL); err != nil {
		t.Fatal(err)
	}
	if err := rw.PL().UnlockX(pid(1), true); err != nil {
		t.Fatal(err)
	}
	lateRes, err := late.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := late.PL().LockS(pid(1), lateRes.PL); err != nil {
		t.Fatalf("S latch against the RW's sticky X on the promoted home: %v", err)
	}
	if err := late.PL().UnlockS(pid(1)); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRegisterUnregister(t *testing.T) {
	tp := newTestPool(t, Config{}, 64)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := tp.client(t, rdma.NodeID(rune('a'+w)))
		wg.Add(1)
		go func(c *Pool) {
			defer wg.Done()
			for i := uint32(0); i < 100; i++ {
				if _, err := c.Register(pid(i % 32)); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if err := c.Unregister(pid(i % 32)); err != nil {
					t.Errorf("unregister: %v", err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				t.Errorf("flush: %v", err)
			}
		}(c)
	}
	wg.Wait()
	s := tp.home.Stats()
	if s.Referenced != 0 {
		t.Fatalf("referenced = %d after all unregisters", s.Referenced)
	}
}

func TestStatsCounters(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	rw := tp.client(t, "rw")
	if _, err := rw.Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	// From a second node: the first one's librmem would answer its own
	// second Register from its table, and the home would not hear of it.
	if _, err := tp.client(t, "ro").Register(pid(1)); err != nil {
		t.Fatal(err)
	}
	m := tp.home.ep.Metrics().Snapshot()
	if r, h := m.Counter("rmem.home.registers"), m.Counter("rmem.home.hits"); r != 2 || h != 1 {
		t.Fatalf("registers=%d hits=%d, want 2,1", r, h)
	}
	s := tp.home.Stats()
	if s.TotalSlots != 16 || s.UsedSlots != 1 {
		t.Fatalf("slots total=%d used=%d", s.TotalSlots, s.UsedSlots)
	}
}

func TestSlabHeartbeatAutoDetection(t *testing.T) {
	cfg := Config{
		SlabHeartbeat:     10 * time.Millisecond,
		InvalidateTimeout: 100 * time.Millisecond,
	}
	tp := newTestPool(t, cfg, 4)
	tp.addSlabNode(t, "slab1", 4)
	rw := tp.client(t, "rw")
	for i := uint32(0); i < 8; i++ {
		if _, err := rw.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Kill the slab node; the home's heartbeat must detect it and shrink
	// the pool without any manual HandleSlabFailure call.
	tp.fabric.Detach("slab1")
	deadline := time.Now().Add(3 * time.Second)
	for tp.home.TotalSlots() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("slab failure not auto-detected; slots = %d", tp.home.TotalSlots())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPurgeDropsStickyLatchRecord: a purge takes a page's PL word with its
// slot, so the holder's sticky X record must go too. Otherwise the RW's
// next LockX of the page at its new slot is a "sticky hit" that never
// writes the new word, and an RO's LockS there takes the fast path while
// the RW believes it holds X.
func TestPurgeDropsStickyLatchRecord(t *testing.T) {
	tp := newTestPool(t, Config{}, 4)
	tp.addSlabNode(t, "slab1", 4)
	rw := tp.client(t, "rw")
	for i := uint32(0); i < 5; i++ { // best fit: 0-3 on the home's slab, 4 on slab1
		if _, err := rw.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 4; i++ { // idle: the re-register below reclaims them
		if err := rw.Unregister(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := pid(4)
	old, err := rw.Register(p)
	if err != nil {
		t.Fatal(err)
	}
	if old.Data.Node != "slab1" {
		t.Fatalf("page 4 at %v, want slab1", old.Data)
	}
	if err := rw.PL().LockX(p, old.PL); err != nil {
		t.Fatal(err)
	}
	if err := rw.PL().UnlockX(p, true); err != nil { // sticky
		t.Fatal(err)
	}
	tp.fabric.Detach("slab1")
	tp.home.HandleSlabFailure("slab1")
	if n := rw.PL().HeldCount(); n != 0 {
		t.Errorf("%d latch records survive the purge of their page", n)
	}
	res, err := rw.Register(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists || res.Data.Node != "home" {
		t.Fatalf("re-register of the purged page = %+v, want a new slot on the home's slab", res)
	}
	if err := rw.PL().LockX(p, res.PL); err != nil {
		t.Fatal(err)
	}
	w, err := rw.ep.Load64(res.PL)
	if err != nil {
		t.Fatal(err)
	}
	if !plIsX(w) || plOwner(w) != rw.PL().ownerIdx {
		t.Fatalf("PL word at the new slot = %#x after LockX, want X owned by rw (index %d)", w, rw.PL().ownerIdx)
	}
}

// TestLockXAtAPurgedAddressTouchesNoWord: after a purge hands a page's
// metadata slot to another page, a LockX of the purged page at its old
// address is refused without touching the word, which is now the other
// page's latch.
func TestLockXAtAPurgedAddressTouchesNoWord(t *testing.T) {
	tp := newTestPool(t, Config{}, 0)
	tp.addSlabNode(t, "slab1", 1)
	tp.addSlabNode(t, "slab2", 1)
	rw := tp.client(t, "rw")
	old, err := rw.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	tp.fabric.Detach(old.Data.Node)
	tp.home.HandleSlabFailure(old.Data.Node)
	other, err := tp.client(t, "ro").Register(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	if other.PL != old.PL {
		t.Fatalf("page 2's latch word is at %v, want the purged page's %v", other.PL, old.PL)
	}
	before, err := rw.ep.Load64(old.PL)
	if err != nil {
		t.Fatal(err)
	}
	atomics := counter(rw, "rdma.atomic.ops")
	if err := rw.PL().LockX(pid(1), old.PL); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("LockX at the purged address: %v, want ErrNotRegistered", err)
	}
	if n := counter(rw, "rdma.atomic.ops") - atomics; n != 0 {
		t.Errorf("LockX at the purged address issued %d atomic verbs, want 0", n)
	}
	if w, err := rw.ep.Load64(old.PL); err != nil || w != before {
		t.Errorf("page 2's latch word = %#x (err %v) after the LockX, want %#x", w, err, before)
	}
}

// TestReadPagesRejectsCountBeyondBuffer: a page list whose count the
// message cannot hold fails with wire.ErrShort before the list is made,
// so a corrupt count cannot size an allocation.
func TestReadPagesRejectsCountBeyondBuffer(t *testing.T) {
	w := wire.NewWriter(12)
	w.U32(1000) // 8,000 bytes of ids announced, 8 sent
	w.U32(1)
	w.U32(2)
	msg := w.Bytes()
	var pages []types.PageID
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		rd := wire.NewReader(msg)
		pages = readPages(rd)
		err = rd.Err()
	})
	if !errors.Is(err, wire.ErrShort) || len(pages) != 0 {
		t.Errorf("readPages = %d pages, err %v; want none and wire.ErrShort", len(pages), err)
	}
	if allocs != 0 {
		t.Fatalf("readPages allocated %.0f times on a count beyond the buffer, want 0", allocs)
	}
}
