package rmem

import (
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

// TestUnregistersLeaveInBatches: the last holder's Unregister costs no
// round trip until unregisterBatch pages are queued; then one carries
// them all, and the home's reference sets agree with the table before and
// after.
func TestUnregistersLeaveInBatches(t *testing.T) {
	tp := newTestPool(t, Config{}, 64)
	db := tp.client(t, "db")
	for i := uint32(0); i < unregisterBatch+4; i++ {
		if _, err := db.Register(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < unregisterBatch-1; i++ {
		if err := db.Unregister(pid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter(db, "rmem.unregister.ops"); n != 0 {
		t.Fatalf("%d unreg round trips for %d queued pages, want 0", n, unregisterBatch-1)
	}
	if got := len(homeRefs(tp.home, "db")); got != unregisterBatch+4 {
		t.Fatalf("home holds %d references while everything is queued, want %d", got, unregisterBatch+4)
	}
	checkTableMatchesHome(t, tp, db)
	if err := db.Unregister(pid(unregisterBatch - 1)); err != nil {
		t.Fatal(err)
	}
	if ops, pages := counter(db, "rmem.unregister.ops"), counter(db, "rmem.unregister.pages"); ops != 1 || pages != unregisterBatch {
		t.Fatalf("unreg round trips = %d carrying %d pages, want 1 carrying %d", ops, pages, unregisterBatch)
	}
	if got := len(homeRefs(tp.home, "db")); got != 4 {
		t.Fatalf("home holds %d references after the batch, want the 4 still held", got)
	}
	checkTableMatchesHome(t, tp, db)
	// The batch reached the home in queue order: its LRU evicts page 0 first.
	tp.home.mu.Lock()
	oldest := tp.home.tab.oldest().page
	tp.home.mu.Unlock()
	if oldest != pid(0) {
		t.Fatalf("home LRU front = %s, want %s (first queued)", oldest, pid(0))
	}
}

// TestUnregisterCountsLocalUsers: nested registrations of one page share
// one home reference, which is queued only when the last user lets go;
// unregistering a page that is unknown or already queued is a no-op.
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
	db.mu.Lock()
	queued := len(db.queue)
	db.mu.Unlock()
	if queued != 0 {
		t.Fatal("page queued while a local user still holds it")
	}
	for i := 0; i < 3; i++ { // the last user, then twice more
		if err := db.Unregister(pid(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Unregister(pid(99)); err != nil {
		t.Fatalf("unregister of an unknown page: %v", err)
	}
	db.mu.Lock()
	queued = len(db.queue)
	db.mu.Unlock()
	if queued != 1 {
		t.Fatalf("%d pages queued, want 1", queued)
	}
}

// TestQueuedRegisterNeedsNoRoundTrip: registering a page whose unregister
// is still queued cancels it and answers from the table.
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
		t.Fatalf("rmem.register.ops %d -> %d: a queued page went to the home", ops, got)
	}
	if got := counter(db, "rmem.register.cached"); got != cached+1 {
		t.Fatalf("rmem.register.cached %d -> %d, want +1", cached, got)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := counter(db, "rmem.unregister.ops"); n != 0 {
		t.Fatalf("the cancelled unregister was sent anyway (%d round trips)", n)
	}
	if err := db.Flush(); err != nil { // and an empty queue sends nothing
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
	}
	sent := make(chan error, 1)
	go func() {
		for i := uint32(0); i < unregisterBatch; i++ {
			if err := db.Unregister(pid(i)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
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
// register and unregister the same few pages with no gate at all, so
// registrations meet queued, in-flight and absent entries in every order;
// whatever a goroutine holds at the end must be in the page's PRD.
func TestRegisterRacesUnregisterBatches(t *testing.T) {
	tp := newTestPool(t, Config{}, 64)
	db := tp.client(t, "db")
	const pages = unregisterBatch + 3
	var wg sync.WaitGroup
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
// named entries (held or queued) and SwitchHome removes everything;
// neither leaves a queued unregister behind for a page that is gone.
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
	for i := uint32(0); i < 8; i += 2 { // queue half of them
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
	for _, pg := range db.queue {
		if onSlab1[pg] {
			t.Errorf("%s was on the failed slab and is still queued", pg)
		}
	}
	db.mu.Unlock()
	checkTableMatchesHome(t, tp, db)

	db.SwitchHome("home")
	db.mu.Lock()
	entries, queued := len(db.regs), len(db.queue)
	db.mu.Unlock()
	if entries != 0 || queued != 0 {
		t.Fatalf("after SwitchHome: %d entries, %d queued, want none", entries, queued)
	}
}

// TestForceEvictDropsRegistration: a page an RW takeover purges — here a
// stale one — goes regardless of references, and its slot and PIB word
// return to LIFO free lists, so the next registration of any page reuses
// both. A node that kept the purged page's addresses — its unregister only
// queued — would then read the other page's PIB ("fresh") and bytes. The
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
	if err := db.Unregister(pid(1)); err != nil { // queued
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
		t.Fatal("holder with a queued registration was not told its addresses are gone")
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
