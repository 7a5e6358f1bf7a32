package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"polardb/internal/btree"
	"polardb/internal/polarfs"
	"polardb/internal/rdma"
	"polardb/internal/rmem"
	"polardb/internal/txn"
	"polardb/internal/types"
)

// harness is a full in-process PolarDB Serverless cluster: three storage
// nodes, one memory node (home + slab), an RW engine and optional ROs.
type harness struct {
	t      *testing.T
	fabric *rdma.Fabric
	dep    *polarfs.Deployment
	home   *rmem.Home
	memCfg rmem.Config
	rw     *Engine
	ros    []*Engine
	nextRO int
}

type harnessOpts struct {
	noPool     bool
	poolPages  int
	cachePages int
	roMode     btree.TraverseMode
	pageChunks int
	latency    bool // rdma.DefaultConfig: verbs and storage reads take simulated time
}

func newHarness(t *testing.T, o harnessOpts) *harness {
	t.Helper()
	if o.poolPages == 0 {
		o.poolPages = 512
	}
	if o.cachePages == 0 {
		o.cachePages = 256
	}
	if o.pageChunks == 0 {
		o.pageChunks = 2
	}
	fcfg := rdma.TestConfig()
	if o.latency {
		fcfg = rdma.DefaultConfig()
	}
	h := &harness{t: t, fabric: rdma.NewFabric(fcfg)}
	eps := []*rdma.Endpoint{
		h.fabric.MustAttach("st0"), h.fabric.MustAttach("st1"), h.fabric.MustAttach("st2"),
	}
	h.dep = polarfs.Deploy(polarfs.VolumeConfig{PageChunks: o.pageChunks}, eps)
	t.Cleanup(h.dep.Close)

	if !o.noPool {
		h.memCfg = rmem.Config{
			InvalidateTimeout: 300 * time.Millisecond,
			LatchTimeout:      3 * time.Second,
		}
		memEP := h.fabric.MustAttach("mem0")
		rmem.NewSlabNode(memEP)
		h.home = rmem.NewHome(memEP, h.memCfg, "")
		t.Cleanup(h.home.Close)
		if _, err := h.home.AddSlab("mem0", o.poolPages); err != nil {
			t.Fatal(err)
		}
	}
	h.rw = h.newEngine(t, "rw", Config{LocalCachePages: o.cachePages}, false, "")
	if err := h.rw.Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	_ = o.roMode
	return h
}

// newEngine builds an engine on a fresh endpoint.
func (h *harness) newEngine(t *testing.T, node rdma.NodeID, cfg Config, ro bool, rwNode rdma.NodeID) *Engine {
	t.Helper()
	ep := h.fabric.MustAttach(node)
	deps := Deps{EP: ep, PFS: polarfs.NewClient(ep, h.dep.Cfg, h.dep.Peers)}
	if h.home != nil {
		pool, err := rmem.NewPool(ep, h.memCfg, "mem0")
		if err != nil {
			t.Fatal(err)
		}
		deps.Pool = pool
	}
	var e *Engine
	var err error
	if ro {
		cfg.RWNode = rwNode
		e, err = NewRO(deps, cfg)
	} else {
		e, err = NewRW(deps, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func (h *harness) addRO(mode btree.TraverseMode) *Engine {
	h.nextRO++
	name := rdma.NodeID(fmt.Sprintf("ro%d", h.nextRO))
	return h.newEngine(h.t, name, Config{
		LocalCachePages: 256,
		CTSRegionID:     h.rw.CTSRegionID(),
		ROMode:          mode,
	}, true, h.rw.EP().ID())
}

func mustCommitPut(t *testing.T, e *Engine, tbl *Table, key uint64, payload string) {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(tbl, key, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func roGet(t *testing.T, e *Engine, tbl *Table, key uint64) (string, bool) {
	t.Helper()
	tx, err := e.BeginRO()
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := tx.Get(tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	return string(v), ok
}

func TestBasicCRUD(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("users")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := h.rw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, 1, []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, 2, []byte("bob")); err != nil {
		t.Fatal(err)
	}
	// Own writes visible pre-commit.
	v, ok, err := tx.Get(tbl, 1)
	if err != nil || !ok || string(v) != "alice" {
		t.Fatalf("own read: %q %v %v", v, ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if got, ok := roGet(t, h.rw, tbl, 1); !ok || got != "alice" {
		t.Fatalf("after commit: %q %v", got, ok)
	}
	// Update + delete.
	tx2, _ := h.rw.Begin()
	if err := tx2.Update(tbl, 1, []byte("alice2")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Delete(tbl, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, ok := roGet(t, h.rw, tbl, 1); !ok || got != "alice2" {
		t.Fatalf("after update: %q %v", got, ok)
	}
	if _, ok := roGet(t, h.rw, tbl, 2); ok {
		t.Fatal("deleted key still visible")
	}
}

func TestInsertDuplicateAndUpdateMissing(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 1, "x")
	tx, _ := h.rw.Begin()
	if err := tx.Insert(tbl, 1, []byte("dup")); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("dup insert err = %v", err)
	}
	if err := tx.Update(tbl, 99, []byte("y")); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
	_ = tx.Rollback()
}

func TestSnapshotIsolation(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 1, "v1")

	// Reader snapshots before the writer commits.
	reader, _ := h.rw.BeginRO()
	writer, _ := h.rw.Begin()
	if err := writer.Update(tbl, 1, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Uncommitted write invisible to the reader.
	v, ok, err := reader.Get(tbl, 1)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("read during write: %q %v %v", v, ok, err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	// Still v1 for the old snapshot (repeatable read via undo chain).
	v, ok, _ = reader.Get(tbl, 1)
	if !ok || string(v) != "v1" {
		t.Fatalf("snapshot broken: %q %v", v, ok)
	}
	_ = reader.Commit()
	// New snapshot sees v2.
	if got, _ := roGet(t, h.rw, tbl, 1); got != "v2" {
		t.Fatalf("new snapshot: %q", got)
	}
}

func TestRollbackRestores(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 1, "keep")
	tx, _ := h.rw.Begin()
	if err := tx.Update(tbl, 1, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, 2, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(tbl, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if got, ok := roGet(t, h.rw, tbl, 1); !ok || got != "keep" {
		t.Fatalf("after rollback: %q %v", got, ok)
	}
	if _, ok := roGet(t, h.rw, tbl, 2); ok {
		t.Fatal("rolled-back insert visible")
	}
}

func TestScanMVCC(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(1); k <= 20; k++ {
		mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
	}
	// Delete the odd keys in one txn; scan mid-txn sees all from old view.
	reader, _ := h.rw.BeginRO()
	del, _ := h.rw.Begin()
	for k := uint64(1); k <= 20; k += 2 {
		if err := del.Delete(tbl, k); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if err := reader.Scan(tbl, 0, ^uint64(0), func(k uint64, p []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("old snapshot scan = %d, want 20", count)
	}
	if err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	newReader, _ := h.rw.BeginRO()
	count = 0
	if err := newReader.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("new snapshot scan = %d, want 10", count)
	}
}

func TestLockConflictTimeout(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	h.rw.locks = txn.NewLockTable(50 * time.Millisecond)
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 1, "x")
	a, _ := h.rw.Begin()
	b, _ := h.rw.Begin()
	if err := a.Update(tbl, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(tbl, 1, []byte("b")); !errors.Is(err, txn.ErrLockTimeout) {
		t.Fatalf("err = %v, want lock timeout", err)
	}
	_ = b.Rollback()
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, _ := roGet(t, h.rw, tbl, 1); got != "a" {
		t.Fatalf("winner = %q", got)
	}
}

func TestROSeesCommittedWrites(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 1, "v1")

	ro := h.addRO(btree.Optimistic)
	roTbl, err := ro.OpenTable("t")
	if err != nil {
		t.Fatalf("RO open table: %v", err)
	}
	if got, ok := roGet(t, ro, roTbl, 1); !ok || got != "v1" {
		t.Fatalf("RO read: %q %v", got, ok)
	}
	// RW updates; cache invalidation must reach the RO's cached copy.
	mustCommitPut(t, h.rw, tbl, 1, "v2")
	if got, ok := roGet(t, ro, roTbl, 1); !ok || got != "v2" {
		t.Fatalf("RO read after invalidation: %q %v", got, ok)
	}
}

func TestROSeesFreshCommitBeforeBackfill(t *testing.T) {
	// Immediately after commit the record's cts field is still 0; the RO
	// must resolve visibility through a one-sided CTS log read.
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	ro := h.addRO(btree.Optimistic)
	roTbl, _ := ro.OpenTable("t")

	for i := uint64(1); i <= 50; i++ {
		mustCommitPut(t, h.rw, tbl, i, fmt.Sprintf("x%d", i))
		if got, ok := roGet(t, ro, roTbl, i); !ok || got != fmt.Sprintf("x%d", i) {
			t.Fatalf("RO read %d right after commit: %q %v", i, got, ok)
		}
	}
}

func TestROBothLockModes(t *testing.T) {
	for _, mode := range []btree.TraverseMode{btree.Optimistic, btree.PessimisticS} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, harnessOpts{})
			tbl, _ := h.rw.CreateTable("t")
			for k := uint64(0); k < 200; k++ {
				mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
			}
			ro := h.addRO(mode)
			roTbl, _ := ro.OpenTable("t")

			// Concurrent writer driving SMOs while the RO reads.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := uint64(1000)
				for {
					select {
					case <-stop:
						return
					default:
					}
					mustCommitPut(t, h.rw, tbl, k, "w")
					k++
				}
			}()
			for pass := 0; pass < 20; pass++ {
				for k := uint64(0); k < 200; k += 17 {
					if got, ok := roGet(t, ro, roTbl, k); !ok || got != fmt.Sprintf("v%d", k) {
						t.Errorf("RO %s read %d = %q,%v", mode, k, got, ok)
						close(stop)
						wg.Wait()
						return
					}
				}
			}
			close(stop)
			wg.Wait()
			if mode == btree.PessimisticS {
				if m := ro.EP().Metrics().Snapshot(); m.Counter("rmem.pl.fast")+m.Counter("rmem.pl.slow") == 0 {
					t.Fatal("pessimistic RO took no global latches")
				}
			}
		})
	}
}

func TestCacheEvictionPressure(t *testing.T) {
	// A local cache far smaller than the working set forces constant
	// swapping between local cache and remote memory.
	h := newHarness(t, harnessOpts{cachePages: 16, poolPages: 1024})
	tbl, _ := h.rw.CreateTable("t")
	const n = 500
	payload := bytes.Repeat([]byte("p"), 64)
	tx, _ := h.rw.Begin()
	for k := uint64(0); k < n; k++ {
		if err := tx.Insert(tbl, k, payload); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		if k%50 == 49 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			tx, _ = h.rw.Begin()
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		if got, ok := roGet(t, h.rw, tbl, k); !ok || got != string(payload) {
			t.Fatalf("readback %d: %v", k, ok)
		}
	}
	cs := h.rw.Cache().Stats()
	if cs.SwappedOut == 0 {
		t.Fatal("no eviction under pressure")
	}
	if h.rw.EP().Metrics().Snapshot().Counter("engine.page.remote_read") == 0 {
		t.Fatal("no remote memory reads under pressure")
	}
}

func TestNoPoolBaseline(t *testing.T) {
	// Shared-storage PolarDB baseline: no remote memory at all.
	h := newHarness(t, harnessOpts{noPool: true, cachePages: 32})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(0); k < 200; k++ {
		mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
	}
	for k := uint64(0); k < 200; k++ {
		if got, ok := roGet(t, h.rw, tbl, k); !ok || got != fmt.Sprintf("v%d", k) {
			t.Fatalf("baseline read %d: %q %v", k, got, ok)
		}
	}
	if h.rw.EP().Metrics().Snapshot().Counter("engine.page.storage_read") == 0 {
		t.Fatal("baseline never read storage")
	}
}

func TestBackfillFillsCTS(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 7, "x")
	waitBackfilled(t, tbl, []uint64{7})
}

// waitBackfilled returns once every key's newest record carries its commit
// timestamp, i.e. the backfill worker has nothing left to do for them.
func waitBackfilled(t *testing.T, tbl *Table, keys []uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, k := range keys {
		for {
			raw, err := tbl.Primary.Get(k, btree.Local)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := txn.UnmarshalRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			if rec.CTS != 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cts of key %d never backfilled", k)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestPrefetchWarmsLocalCache(t *testing.T) {
	h := newHarness(t, harnessOpts{cachePages: 64, poolPages: 2048})
	tbl, _ := h.rw.CreateTable("t")
	var keys []uint64
	tx, _ := h.rw.Begin()
	for k := uint64(0); k < 300; k++ {
		if err := tx.Insert(tbl, k, bytes.Repeat([]byte("z"), 100)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if k%50 == 49 {
			_ = tx.Commit()
			tx, _ = h.rw.Begin()
		}
	}
	_ = tx.Commit()
	// The commit-timestamp backfill fetches pages too; let it finish, or
	// its misses are counted against the reads below.
	waitBackfilled(t, tbl, keys)
	// Evict everything local, then prefetch and measure.
	h.rw.Cache().EvictAll()
	h.rw.Cache().ResetStats()
	h.rw.Prefetch(tbl.Primary, keys[:100]).Wait()
	missesAfterPrefetch := h.rw.Cache().Stats().Misses
	if missesAfterPrefetch == 0 {
		t.Fatal("prefetch fetched nothing")
	}
	// The prefetched keys now hit the local cache.
	before := h.rw.Cache().Stats()
	ro, _ := h.rw.BeginRO()
	for _, k := range keys[:100] {
		if _, ok, err := ro.Get(tbl, k); !ok || err != nil {
			t.Fatalf("get %d: %v %v", k, ok, err)
		}
	}
	after := h.rw.Cache().Stats()
	if after.Misses != before.Misses {
		t.Fatalf("reads after prefetch missed %d times", after.Misses-before.Misses)
	}
}

// TestConcurrentCreateTableGetsDistinctSpaces: DDL is serial, so tables
// created at once each get a tablespace of their own, and of two creates
// of one name exactly one succeeds.
func TestConcurrentCreateTableGetsDistinctSpaces(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	const n = 8
	owner := map[types.SpaceID]string{}
	for round := 0; round < 3; round++ {
		tables := make([]*Table, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tables[i], errs[i] = h.rw.CreateTable(fmt.Sprintf("r%d_t%d", round, i/2))
			}()
		}
		wg.Wait()
		for i := 0; i < n; i += 2 {
			ok0, ok1 := errs[i] == nil, errs[i+1] == nil
			if ok0 == ok1 {
				t.Fatalf("round %d: two creates of %s returned %v and %v; want one success and one ErrTableExists", round, fmt.Sprintf("r%d_t%d", round, i/2), errs[i], errs[i+1])
			}
			for _, j := range []int{i, i + 1} {
				if errs[j] != nil && !errors.Is(errs[j], ErrTableExists) {
					t.Fatalf("round %d: create %d: %v", round, j, errs[j])
				}
				if tbl := tables[j]; tbl != nil {
					if prev, dup := owner[tbl.Space]; dup {
						t.Fatalf("tables %s and %s share tablespace %d", prev, tbl.Name, tbl.Space)
					}
					owner[tbl.Space] = tbl.Name
				}
			}
		}
	}
}

// TestCreateIndexLeavesSharedTableUntouched: CreateIndex publishes a new
// table definition instead of writing the map that sessions holding the
// old one read from.
func TestCreateIndexLeavesSharedTableUntouched(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, err := h.rw.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur, err := h.rw.OpenTable("t")
			if err != nil {
				t.Error(err)
				return
			}
			_ = cur.Indexes["ix0"] // what a session does per index statement
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for i := 0; i < n; i++ {
		if _, err := h.rw.CreateIndex(tbl, fmt.Sprintf("ix%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tbl.Indexes) != 0 {
		t.Fatalf("the table CreateIndex was handed now has %d indexes; want it untouched", len(tbl.Indexes))
	}
	cur, err := h.rw.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Indexes) != n {
		t.Fatalf("OpenTable after %d CreateIndex calls sees %d indexes", n, len(cur.Indexes))
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	tbl, _ := h.rw.CreateTable("emp")
	ageIdx, err := h.rw.CreateIndex(tbl, "by_age")
	if err != nil {
		t.Fatal(err)
	}
	// Index key: age<<32 | pk. Value: pk bytes.
	tx, _ := h.rw.Begin()
	for pk := uint64(1); pk <= 30; pk++ {
		age := 20 + pk%10
		if err := tx.Insert(tbl, pk, []byte(fmt.Sprintf("emp-%d-age-%d", pk, age))); err != nil {
			t.Fatal(err)
		}
		if err := tx.InsertIndex(ageIdx, age<<32|pk, []byte{byte(pk)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Range scan ages [25,27) via index.
	ro, _ := h.rw.BeginRO()
	var pks []uint64
	if err := ro.ScanTree(ageIdx.Tree, 25<<32, 27<<32, func(k uint64, _ []byte) bool {
		pks = append(pks, k&0xFFFFFFFF)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pks) != 6 {
		t.Fatalf("index scan found %d pks, want 6", len(pks))
	}
	for _, pk := range pks {
		if _, ok, _ := ro.Get(tbl, pk); !ok {
			t.Fatalf("pk %d from index not in base table", pk)
		}
	}
}

func TestOpenTableOnRO(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	if _, err := h.rw.CreateTable("t1"); err != nil {
		t.Fatal(err)
	}
	ro := h.addRO(btree.Optimistic)
	if _, err := ro.OpenTable("t1"); err != nil {
		t.Fatalf("RO open: %v", err)
	}
	if _, err := ro.OpenTable("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := ro.CreateTable("nope"); !errors.Is(err, ErrNotRW) {
		t.Fatalf("RO create err = %v", err)
	}
}

func TestConcurrentTransactions(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 2048, cachePages: 512})
	tbl, _ := h.rw.CreateTable("t")
	const workers, per = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < per; i++ {
				tx, err := h.rw.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				k := base*1000 + i
				if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("w%d", k))); err != nil {
					t.Errorf("insert %d: %v", k, err)
					_ = tx.Rollback()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	ro, _ := h.rw.BeginRO()
	count := 0
	if err := ro.Scan(tbl, 0, ^uint64(0), func(uint64, []byte) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != workers*per {
		t.Fatalf("count = %d, want %d", count, workers*per)
	}
}

func TestUnplannedRWFailover(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 1024})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(0); k < 100; k++ {
		mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
	}
	// Leave an uncommitted transaction hanging at crash time.
	hang, _ := h.rw.Begin()
	if err := hang.Update(tbl, 5, []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	// Crash the RW.
	h.rw.EP().Kill()
	h.rw.Close()

	// Promote a new RW on a fresh endpoint (the CM's steps 1-2 are the
	// kill above; storage/home fencing is implicit — the dead node cannot
	// reach the fabric).
	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 256}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Committed data survives.
	for k := uint64(0); k < 100; k += 7 {
		want := fmt.Sprintf("v%d", k)
		if got, ok := roGet(t, newRW, mustOpen(t, newRW, "t"), k); !ok || got != want {
			t.Fatalf("key %d after failover: %q %v", k, got, ok)
		}
	}
	// The uncommitted update was rolled back (immediately invisible, and
	// eventually physically restored).
	deadline := time.Now().Add(3 * time.Second)
	for {
		got, ok := roGet(t, newRW, mustOpen(t, newRW, "t"), 5)
		if ok && got == "v5" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("uncommitted update not rolled back: %q %v", got, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// New RW serves new writes.
	tbl2 := mustOpen(t, newRW, "t")
	mustCommitPut(t, newRW, tbl2, 200, "after-failover")
	if got, ok := roGet(t, newRW, tbl2, 200); !ok || got != "after-failover" {
		t.Fatalf("post-failover write: %q %v", got, ok)
	}
}

func mustOpen(t *testing.T, e *Engine, name string) *Table {
	t.Helper()
	tbl, err := e.OpenTable(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFailoverKeepsRemoteMemoryWarm(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 2048, cachePages: 512})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(0); k < 300; k++ {
		mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
	}
	// Flush dirty pages to remote memory (clean shutdown of the cache
	// path) then crash. Pages stay in the pool.
	h.rw.WaitAllShipped()
	h.rw.Cache().EvictAll()
	h.rw.EP().Kill()
	h.rw.Close()

	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 512}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatal(err)
	}
	before := newRW.EP().Metrics().Snapshot()
	tbl2 := mustOpen(t, newRW, "t")
	for k := uint64(0); k < 300; k += 3 {
		if _, ok := roGet(t, newRW, tbl2, k); !ok {
			t.Fatalf("key %d missing after failover", k)
		}
	}
	d := newRW.EP().Metrics().Snapshot().Sub(before)
	remote, storage := d.Counter("engine.page.remote_read"), d.Counter("engine.page.storage_read")
	if remote == 0 {
		t.Fatal("remote memory cold after failover (no remote reads)")
	}
	if storage > remote {
		t.Fatalf("storage reads (%d) exceed remote reads (%d): pool not warm", storage, remote)
	}
}

// TestRecoveryWarmsPurgedPages: the pages the crashed RW left dirty are
// PIB-stale in the pool, recovery purges them, and the new RW fetches them
// back from storage on its own — no statement asks for them here — so the
// rows that were being written are read afterwards without a storage read.
func TestRecoveryWarmsPurgedPages(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 2048, cachePages: 512})
	tbl, _ := h.rw.CreateTable("t")
	insertRows(t, h.rw, tbl, 0, 600)
	h.rw.WaitAllShipped() // so that no pooled page is ahead of the durable redo: what recovery purges is what is stale
	h.rw.EP().Kill()
	h.rw.Close()
	var stale []types.PageID
	ofTable := 0
	for _, en := range h.home.Scan() {
		if en.Stale {
			stale = append(stale, en.Page)
			if en.Page.Space == tbl.Space {
				ofTable++
			}
		}
	}
	if ofTable < 2 {
		t.Fatalf("%d of the table's pages are stale in the pool; the test needs some", ofTable)
	}

	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 512}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range stale {
		for {
			if f := newRW.Cache().Get(id); f != nil {
				f.Unpin()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s, purged by recovery, is not in the new RW's cache 5 s later (%d purged)", id, len(stale))
			}
			time.Sleep(time.Millisecond)
		}
	}
	tbl2 := mustOpen(t, newRW, "t")
	before := newRW.EP().Metrics().Snapshot()
	checkRows(t, newRW, tbl2, 0, 600)
	if n := newRW.EP().Metrics().Snapshot().Sub(before).Counter("engine.page.storage_read"); n != 0 {
		t.Fatalf("reading the rows after the warm-up: engine.page.storage_read +%d, want 0", n)
	}
}

func TestPlannedHandover(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 1024})
	tbl, _ := h.rw.CreateTable("t")
	for k := uint64(0); k < 50; k++ {
		mustCommitPut(t, h.rw, tbl, k, fmt.Sprintf("v%d", k))
	}
	if err := h.rw.PlannedHandover(); err != nil {
		t.Fatal(err)
	}
	h.rw.EP().Kill()

	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 256}, false, "")
	if _, err := newRW.Recover("rw", true); err != nil {
		t.Fatal(err)
	}
	tbl2 := mustOpen(t, newRW, "t")
	for k := uint64(0); k < 50; k++ {
		if got, ok := roGet(t, newRW, tbl2, k); !ok || got != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d after handover: %q %v", k, got, ok)
		}
	}
	mustCommitPut(t, newRW, tbl2, 100, "post")
}

func TestROSwitchRWAfterFailover(t *testing.T) {
	h := newHarness(t, harnessOpts{poolPages: 1024})
	tbl, _ := h.rw.CreateTable("t")
	mustCommitPut(t, h.rw, tbl, 1, "v1")
	ro := h.addRO(btree.Optimistic)
	roTbl := mustOpen(t, ro, "t")
	if got, _ := roGet(t, ro, roTbl, 1); got != "v1" {
		t.Fatal("pre-failover RO read failed")
	}
	h.rw.EP().Kill()
	h.rw.Close()
	newRW := h.newEngine(t, "rw2", Config{LocalCachePages: 256}, false, "")
	if _, err := newRW.Recover("rw", false); err != nil {
		t.Fatal(err)
	}
	ro.SwitchRW("rw2", newRW.CTSRegionID())
	roTbl2 := mustOpen(t, ro, "t")
	if got, ok := roGet(t, ro, roTbl2, 1); !ok || got != "v1" {
		t.Fatalf("RO read after switch: %q %v", got, ok)
	}
	mustCommitPut(t, newRW, mustOpen(t, newRW, "t"), 2, "v2")
	if got, ok := roGet(t, ro, roTbl2, 2); !ok || got != "v2" {
		t.Fatalf("RO read of post-failover write: %q %v", got, ok)
	}
}
