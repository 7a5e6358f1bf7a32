package rmem

import (
	"errors"
	"sync"
	"testing"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/types"
)

// homeRefs lists the pages whose PRD at the home names node.
func homeRefs(h *Home, node rdma.NodeID) map[types.PageID]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[types.PageID]bool{}
	for _, e := range h.tab.pat {
		if e.refs[node] {
			out[e.page] = true
		}
	}
	return out
}

// tablePages lists the pages in a node's registration table.
func tablePages(p *Pool) map[types.PageID]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := map[types.PageID]bool{}
	for pg := range p.regs {
		out[pg] = true
	}
	return out
}

// checkTableMatchesHome fails unless the node's table and the home's
// reference sets name the same pages: an entry means "the home counts
// this node as a holder", no more and no less.
func checkTableMatchesHome(t *testing.T, tp *testPool, p *Pool) {
	t.Helper()
	table, refs := tablePages(p), homeRefs(tp.home, p.ep.ID())
	for pg := range table {
		if !refs[pg] {
			t.Errorf("%s is in %s's table but the home holds no reference for it", pg, p.ep.ID())
		}
	}
	for pg := range refs {
		if !table[pg] {
			t.Errorf("the home holds a reference of %s on %s that its table does not know", p.ep.ID(), pg)
		}
	}
}

func counter(p *Pool, name string) uint64 { return p.ep.Metrics().Snapshot().Counter(name) }

// idleLen is how many entries of a node's table are idle.
func idleLen(p *Pool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle.Len()
}

// TestUnregistersLeaveInBatches: the last holder's Unregister costs no
// round trip, however many pages go idle, and the home keeps counting the
// node as a holder; Flush then sends every idle entry in one round trip,
// oldest first, and the home's reference sets agree with the table before
// and after.
func TestUnregistersLeaveInBatches(t *testing.T) {
	tp := newTestPool(t, Config{}, 64)
	db := tp.client(t, "db")
	const pages = 2*unregisterBatch + 4
	for i := uint32(0); i < pages; i++ {
		if _, err := db.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	rpcs := counter(db, "rdma.rpc.ops")
	for i := uint32(0); i < pages-4; i++ {
		if err := db.Unregister(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(db, "rdma.rpc.ops"); n != rpcs {
		t.Fatalf("%d unregisters cost %d round trips, want 0", pages-4, n-rpcs)
	}
	if got := len(homeRefs(tp.home, "db")); got != pages {
		t.Fatalf("home holds %d references while %d pages are idle, want %d", got, pages-4, pages)
	}
	checkTableMatchesHome(t, tp, db)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if ops, sent := counter(db, "rmem.unregister.ops"), counter(db, "rmem.unregister.pages"); ops != 1 || sent != pages-4 {
		t.Fatalf("unreg round trips = %d carrying %d pages, want 1 carrying %d", ops, sent, pages-4)
	}
	if got := len(homeRefs(tp.home, "db")); got != 4 {
		t.Fatalf("home holds %d references after Flush, want the 4 still held", got)
	}
	checkTableMatchesHome(t, tp, db)
	// The batch reached the home oldest first: its LRU evicts page 0 first.
	tp.home.mu.Lock()
	oldest := tp.home.tab.oldest().page
	tp.home.mu.Unlock()
	if oldest != pid(0) {
		t.Fatalf("home LRU front = %s, want %s (first to go idle)", oldest, pid(0))
	}
}

// TestUnregisterCountsLocalUsers: nested registrations of one page share
// one home reference, whose entry goes idle only when the last user lets
// go; unregistering a page that is unknown or already idle is a no-op.
func TestUnregisterCountsLocalUsers(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	db := tp.client(t, "db")
	first, err := db.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Exists || second.Data != first.Data || second.PIB != first.PIB || second.PL != first.PL {
		t.Fatalf("nested register = %+v, want the addresses of %+v with Exists", second, first)
	}
	if ops, cached := counter(db, "rmem.register.ops"), counter(db, "rmem.register.cached"); ops != 1 || cached != 1 {
		t.Fatalf("register round trips = %d, cached = %d, want 1 and 1", ops, cached)
	}
	if err := db.Unregister(pid(1)); err != nil {
		t.Fatal(err)
	}
	if idleLen(db) != 0 {
		t.Fatal("page idle while a local user still holds it")
	}
	for i := 0; i < 3; i++ { // the last user, then twice more
		if err := db.Unregister(pid(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Unregister(pid(99)); err != nil {
		t.Fatalf("unregister of an unknown page: %v", err)
	}
	if n := idleLen(db); n != 1 {
		t.Fatalf("%d pages idle, want 1", n)
	}
}

// TestQueuedRegisterNeedsNoRoundTrip: registering an idle page takes it
// off the idle list and answers from the table.
func TestQueuedRegisterNeedsNoRoundTrip(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	db := tp.client(t, "db")
	first, err := db.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Unregister(pid(1)); err != nil {
		t.Fatal(err)
	}
	ops, cached := counter(db, "rmem.register.ops"), counter(db, "rmem.register.cached")
	again, err := db.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Exists || again.Data != first.Data || again.PIB != first.PIB {
		t.Fatalf("re-register = %+v, want the addresses of %+v with Exists", again, first)
	}
	if got := counter(db, "rmem.register.ops"); got != ops {
		t.Fatalf("rmem.register.ops %d -> %d: an idle page went to the home", ops, got)
	}
	if got := counter(db, "rmem.register.cached"); got != cached+1 {
		t.Fatalf("rmem.register.cached %d -> %d, want +1", cached, got)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := counter(db, "rmem.unregister.ops"); n != 0 {
		t.Fatalf("the page held again was sent anyway (%d round trips)", n)
	}
	if err := db.Flush(); err != nil { // and an empty idle list sends nothing
		t.Fatal(err)
	}
	if rpcs := counter(db, "rdma.rpc.ops"); rpcs != 2 { // hello + one register
		t.Fatalf("rdma.rpc.ops = %d, want 2 (hello, one page_register)", rpcs)
	}
	checkTableMatchesHome(t, tp, db)
}

// TestRegisterWaitsForInFlightBatch: a Register of a page whose unregister
// is on the wire must reach the home after it. If the AddRef overtook the
// Unref, the home would drop the reference the node is about to count on.
func TestRegisterWaitsForInFlightBatch(t *testing.T) {
	tp := newTestPool(t, Config{}, 64)
	db := tp.client(t, "db")
	arrived, release := make(chan struct{}), make(chan struct{})
	tp.home.ep.RegisterHandler(method("unreg"), func(from rdma.NodeID, req []byte) ([]byte, error) {
		close(arrived)
		<-release
		return tp.home.handleUnregister(from, req)
	})
	for i := uint32(0); i < unregisterBatch; i++ {
		if _, err := db.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Unregister(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- db.Flush() }()
	<-arrived
	registered := make(chan error, 1)
	go func() {
		_, err := db.Register(pid(3))
		registered <- err
	}()
	select {
	case err := <-registered:
		t.Fatalf("Register returned (%v) while the page's unregister was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(release)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if err := <-registered; err != nil {
		t.Fatal(err)
	}
	if refs := homeRefs(tp.home, "db"); len(refs) != 1 || !refs[pid(3)] {
		t.Fatalf("home references of db = %v, want exactly %s", refs, pid(3))
	}
	checkTableMatchesHome(t, tp, db)
}

// TestRegisterRacesUnregisterBatches lets two goroutines of one node
// register and unregister the same few pages while a third flushes the
// idle list, with no gate at all, so registrations meet held, idle,
// in-flight and absent entries in every order; whatever a goroutine holds
// at the end must be in the page's PRD.
func TestRegisterRacesUnregisterBatches(t *testing.T) {
	tp := newTestPool(t, Config{}, 64)
	db := tp.client(t, "db")
	const pages = unregisterBatch + 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flushed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flushed <- nil
				return
			default:
			}
			if err := db.Flush(); err != nil {
				flushed <- err
				return
			}
		}
	}()
	for g := uint32(0); g < 2; g++ {
		wg.Add(1)
		go func(g uint32) {
			defer wg.Done()
			for i := uint32(0); i < 2000; i++ {
				pg := pid((i*7 + g*5) % pages)
				if _, err := db.Register(pg); err != nil {
					t.Errorf("register %s: %v", pg, err)
					return
				}
				if i%500 == 499 {
					continue // keep this one: held pages must survive the batches around them
				}
				if err := db.Unregister(pg); err != nil {
					t.Errorf("unregister %s: %v", pg, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if counter(db, "rmem.unregister.ops") == 0 {
		t.Fatal("no batch left while the registers ran; the test checks nothing")
	}
	checkTableMatchesHome(t, tp, db)
	db.mu.Lock()
	held := 0
	for _, r := range db.regs {
		if r.users > 0 {
			held++
		}
	}
	db.mu.Unlock()
	if held == 0 {
		t.Fatal("nothing held at the end; the test checks nothing")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkTableMatchesHome(t, tp, db)
	if got := len(tablePages(db)); got != held {
		t.Fatalf("%d entries after Flush, want the %d held ones", got, held)
	}
}

// TestTableDropsWhatTheHomeTakesAway: cb.slabfail removes exactly the
// named entries (held or idle) and SwitchHome removes everything; neither
// leaves a page that is gone on the idle list.
func TestTableDropsWhatTheHomeTakesAway(t *testing.T) {
	tp := newTestPool(t, Config{}, 4)
	tp.addSlabNode(t, "slab1", 4)
	db := tp.client(t, "db")
	onSlab1 := map[types.PageID]bool{}
	for i := uint32(0); i < 8; i++ {
		res, err := db.Register(pid(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Data.Node == "slab1" {
			onSlab1[pid(i)] = true
		}
	}
	for i := uint32(0); i < 8; i += 2 { // half of them go idle
		if err := db.Unregister(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	tp.fabric.Detach("slab1")
	tp.home.HandleSlabFailure("slab1")
	table := tablePages(db)
	if len(table) != 8-len(onSlab1) {
		t.Fatalf("%d entries after the slab failure, want %d", len(table), 8-len(onSlab1))
	}
	for pg := range onSlab1 {
		if table[pg] {
			t.Errorf("%s was on the failed slab and is still in the table", pg)
		}
	}
	db.mu.Lock()
	for el := db.idle.Front(); el != nil; el = el.Next() {
		if pg := el.Value.(types.PageID); onSlab1[pg] {
			t.Errorf("%s was on the failed slab and is still idle", pg)
		}
	}
	db.mu.Unlock()
	checkTableMatchesHome(t, tp, db)

	db.SwitchHome("home")
	if entries, idle := len(tablePages(db)), idleLen(db); entries != 0 || idle != 0 {
		t.Fatalf("after SwitchHome: %d entries, %d idle, want none", entries, idle)
	}
}

// TestForceEvictDropsRegistration: a page an RW takeover purges — here a
// stale one — goes regardless of references, and its slot and PIB word
// return to LIFO free lists, so the next registration of any page reuses
// both. A node that kept the purged page's addresses — its entry only
// idle — would then read the other page's PIB ("fresh") and bytes. The
// home tells holders with the address-dropping callback.
func TestForceEvictDropsRegistration(t *testing.T) {
	tp := newTestPool(t, Config{}, 16)
	db := tp.client(t, "db")
	lost := make(chan []types.PageID, 1)
	db.OnSlabFailure(func(pages []types.PageID) { lost <- pages })
	first, err := db.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WritePage(first.Data, make([]byte, types.PageSize), first.PIB); err != nil {
		t.Fatal(err)
	}
	if err := db.Unregister(pid(1)); err != nil { // idle
		t.Fatal(err)
	}
	rw := tp.client(t, "rw")
	if err := rw.InvalidateBatch([]types.PageID{pid(1)}); err != nil { // stale
		t.Fatal(err)
	}
	if purged, err := rw.Takeover("", 1<<62); err != nil || len(purged) != 1 || purged[0] != pid(1) {
		t.Fatalf("takeover purged %v (err %v), want [%s]", purged, err, pid(1))
	}
	select {
	case pages := <-lost:
		if len(pages) != 1 || pages[0] != pid(1) {
			t.Fatalf("holder told about %v, want [%s]", pages, pid(1))
		}
	default:
		t.Fatal("holder with an idle registration was not told its addresses are gone")
	}
	other, err := db.Register(pid(2))
	if err != nil {
		t.Fatal(err)
	}
	if other.Data != first.Data || other.PIB != first.PIB {
		t.Fatalf("page 2 at %v/%v did not reuse page 1's slot %v/%v; the test checks nothing", other.Data, other.PIB, first.Data, first.PIB)
	}
	ops := counter(db, "rmem.register.ops")
	again, err := db.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := counter(db, "rmem.register.ops"); got != ops+1 {
		t.Fatal("re-register of a purged page was answered from the table")
	}
	if again.Exists || again.Data == first.Data || again.PIB == first.PIB {
		t.Fatalf("re-register = %+v: the dead addresses %v/%v came back", again, first.Data, first.PIB)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	checkTableMatchesHome(t, tp, db)
}

// TestReclaimFreesIdleRegistrations: idle entries cost their node nothing
// and the home keeps counting them; when another node finds the pool full,
// the home takes them back with one cb.reclaim and the holder's one unreg.
func TestReclaimFreesIdleRegistrations(t *testing.T) {
	tp := newTestPool(t, Config{}, 4)
	a, b := tp.client(t, "a"), tp.client(t, "b")
	for i := uint32(0); i < 4; i++ {
		if _, err := a.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	rpcs := counter(a, "rdma.rpc.ops")
	for i := uint32(0); i < 4; i++ {
		if err := a.Unregister(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(a, "rdma.rpc.ops"); n != rpcs {
		t.Fatalf("4 unregisters cost %d round trips, want 0", n-rpcs)
	}
	if refs := homeRefs(tp.home, "a"); len(refs) != 4 {
		t.Fatalf("home counts %d references of a, want 4", len(refs))
	}
	res, err := b.Register(pid(5))
	if err != nil {
		t.Fatalf("register with the pool full of idle entries: %v", err)
	}
	if res.Exists {
		t.Fatal("page 5 was never in the pool")
	}
	home := tp.home.ep.Metrics().Snapshot()
	if reclaims, freed := home.Counter("rmem.home.reclaims"), home.Counter("rmem.home.reclaimed_pages"); reclaims != 1 || freed != 4 {
		t.Fatalf("%d cb.reclaim freeing %d pages, want 1 freeing 4", reclaims, freed)
	}
	if ops, pages := counter(a, "rmem.unregister.ops"), counter(a, "rmem.unregister.pages"); ops != 1 || pages != 4 {
		t.Fatalf("a sent %d unreg round trips carrying %d pages, want 1 carrying 4", ops, pages)
	}
	if n := counter(a, "rdma.rpc.ops"); n != rpcs+1 {
		t.Fatalf("a made %d round trips for the reclaim, want the one unreg", n-rpcs)
	}
	if n := home.Counter("rmem.home.evictions"); n != 1 {
		t.Fatalf("%d evictions, want 1", n)
	}
	checkTableMatchesHome(t, tp, a)
	checkTableMatchesHome(t, tp, b)
	if idleLen(a) != 0 || len(tablePages(a)) != 0 {
		t.Fatalf("a keeps %v after giving everything back", tablePages(a))
	}
}

// TestReclaimNeverTakesHeldPages: a page with local users is not given up.
// With every slot held, the register fails and the holder's table and
// references are as they were.
func TestReclaimNeverTakesHeldPages(t *testing.T) {
	tp := newTestPool(t, Config{}, 4)
	a, b := tp.client(t, "a"), tp.client(t, "b")
	for i := uint32(0); i < 4; i++ {
		if _, err := a.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := tablePages(a)
	if _, err := b.Register(pid(5)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("register with every slot held: %v, want ErrOutOfMemory", err)
	}
	if n := tp.home.ep.Metrics().Snapshot().Counter("rmem.home.reclaims"); n != 1 {
		t.Fatalf("%d cb.reclaim sent, want 1 (to a)", n)
	}
	if n := counter(a, "rmem.unregister.ops"); n != 0 {
		t.Fatalf("a sent %d unreg round trips for held pages", n)
	}
	if after := tablePages(a); len(after) != len(before) {
		t.Fatalf("a's table went from %v to %v", before, after)
	}
	a.mu.Lock()
	for pg, r := range a.regs {
		if r.users != 1 || r.done != nil {
			t.Errorf("%s: %d users, busy %v; want held by 1", pg, r.users, r.done != nil)
		}
	}
	a.mu.Unlock()
	checkTableMatchesHome(t, tp, a)
}

// TestRegisterRacesReclaim: one node registers and unregisters a few pages
// from two goroutines while another keeps the pool full, so the home keeps
// reclaiming the first node's idle entries under its registers. Whatever
// either table holds at the end must be in the home's PRD, and nothing
// else.
func TestRegisterRacesReclaim(t *testing.T) {
	tp := newTestPool(t, Config{}, 6)
	a, b := tp.client(t, "a"), tp.client(t, "b")
	var wg sync.WaitGroup
	cycle := func(p *Pool, first, pages, rounds uint32, stride uint32) {
		defer wg.Done()
		for i := uint32(0); i < rounds; i++ {
			pg := pid(first + (i*stride)%pages)
			if _, err := p.Register(pg); errors.Is(err, ErrOutOfMemory) {
				continue // every slot held for a moment: storage-direct
			} else if err != nil {
				t.Errorf("register %s: %v", pg, err)
				return
			}
			if err := p.Unregister(pg); err != nil {
				t.Errorf("unregister %s: %v", pg, err)
				return
			}
		}
	}
	wg.Add(3)
	go cycle(a, 0, 5, 400, 1)
	go cycle(a, 0, 5, 400, 3)
	go cycle(b, 100, 50, 400, 1)
	wg.Wait()
	if n := tp.home.ep.Metrics().Snapshot().Counter("rmem.home.reclaimed_pages"); n == 0 || counter(a, "rmem.unregister.ops") == 0 {
		t.Fatalf("%d pages reclaimed, none from a; the test checks nothing", n)
	}
	checkTableMatchesHome(t, tp, a)
	checkTableMatchesHome(t, tp, b)
}

// TestReclaimTakesStickyLatchesNotPinnedOnes: an idle page's sticky X
// latch leaves with its entry, its word cleared before the unreg, so a
// node still holding the page can take the latch at once; an idle page
// whose latch a critical section pins is not given up.
func TestReclaimTakesStickyLatchesNotPinnedOnes(t *testing.T) {
	tp := newTestPool(t, Config{}, 3)
	a, b := tp.client(t, "a"), tp.client(t, "b")
	sticky, err := a.Register(pid(0))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := a.Register(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PL().LockX(pid(0), sticky.PL); err != nil {
		t.Fatal(err)
	}
	if err := a.PL().UnlockX(pid(0), true); err != nil {
		t.Fatal(err)
	}
	if err := a.PL().LockX(pid(1), pinned.PL); err != nil {
		t.Fatal(err)
	}
	for _, pg := range []types.PageID{pid(0), pid(1)} {
		if err := a.Unregister(pg); err != nil {
			t.Fatal(err)
		}
	}
	for _, pg := range []types.PageID{pid(0), pid(2)} { // b keeps page 0 pooled after a lets go
		if _, err := b.Register(pg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Register(pid(5)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("register with every slot held but a's page 0: %v, want ErrOutOfMemory", err)
	}
	if table := tablePages(a); len(table) != 1 || !table[pid(1)] {
		t.Fatalf("a's table after the reclaim = %v, want only the pinned page 1", table)
	}
	if n := a.PL().HeldCount(); n != 1 {
		t.Fatalf("a keeps %d latch records, want the pinned one", n)
	}
	checkTableMatchesHome(t, tp, a)
	if w, err := b.ep.Load64(sticky.PL); err != nil || w != 0 {
		t.Fatalf("page 0's latch word = %#x (err %v) after a gave it up, want 0", w, err)
	}
	if err := b.PL().LockX(pid(0), sticky.PL); err != nil {
		t.Fatal(err)
	}
	if fast := counter(b, "rmem.pl.fast"); fast != 1 {
		t.Fatalf("b's X latch on page 0 took the slow path (fast = %d)", fast)
	}
}
