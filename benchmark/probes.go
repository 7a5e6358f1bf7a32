package main

import (
	"errors"
	"math/rand"
	"strings"
	"time"

	"polardb/internal/btree"
	"polardb/internal/cache"
	"polardb/internal/cluster"
	"polardb/internal/plog"
	"polardb/internal/polarfs"
	"polardb/internal/rdma"
	"polardb/internal/types"
)

// The probes time single calls into each layer's exported functions on
// the still-warm cluster of the traced run, after the clients stopped.
// They touch benchmark-private page ids (probeSpace) and benchmark-owned
// endpoints, caches and log buffers only, or read table pages without
// changing them.

const (
	probeCalls  = 1000                   // samples per probe ...
	probeBudget = 300 * time.Millisecond // ... unless the probe is storage-bound and runs out of time first
	probeSpace  = types.SpaceID(0xFFFFFF00)
)

// setFn stores one per-layer metric with its sample count.
type setFn func(name string, v float64, samples int)

// timeCalls runs fn until it has probeCalls samples or spent probeBudget,
// each sample timing batch back-to-back calls, and returns the median
// time of one call in nanoseconds.
func timeCalls(batch int, fn func() error) (float64, int, error) {
	var samples []float64
	deadline := nanos() + int64(probeBudget)
	for len(samples) < probeCalls && (nanos() < deadline || len(samples) < 20) {
		t0 := nanos()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		samples = append(samples, float64(nanos()-t0)/float64(batch))
	}
	return median(samples), len(samples), nil
}

// probe times fn and stores the median under name, in the unit the name
// ends in (_us, or _ns for the node-local structures).
func probe(set setFn, name string, batch int, fn func() error) error {
	ns, n, err := timeCalls(batch, fn)
	if err != nil {
		return err
	}
	if !strings.HasSuffix(name, "_ns") {
		ns = us(ns)
	}
	set(name, ns, n)
	return nil
}

// setMedianUS stores the median of samples (nanoseconds) in microseconds.
func setMedianUS(set setFn, name string, samples []float64) {
	set(name, us(median(samples)), len(samples))
}

func runProbes(c *cluster.Cluster, w workload, ro *cluster.DBNode, set setFn) error {
	if err := probeRDMA(c, set); err != nil {
		return err
	}
	if err := probeRmem(ro, set); err != nil {
		return err
	}
	if err := probeEngine(ro, w, set); err != nil {
		return err
	}
	return probeLocal(set)
}

// probeRDMA times the three verb kinds between two endpoints of the
// benchmark's own on the now idle fabric: what a verb costs on this host
// when nothing competes, next to the configured model.
func probeRDMA(c *cluster.Cluster, set setFn) error {
	a, err := c.Fabric.Attach("bench-a")
	if err != nil {
		return err
	}
	defer c.Fabric.Detach("bench-a")
	b, err := c.Fabric.Attach("bench-b")
	if err != nil {
		return err
	}
	defer c.Fabric.Detach("bench-b")
	reg := b.RegisterRegion(types.PageSize + 8)
	b.RegisterHandler("bench.echo", func(_ rdma.NodeID, req []byte) ([]byte, error) { return req, nil })
	page := rdma.Addr{Node: b.ID(), Region: reg.ID()}
	word := rdma.Addr{Node: b.ID(), Region: reg.ID(), Off: types.PageSize}
	buf := make([]byte, types.PageSize)
	if err := probe(set, "rdma.read_4k_idle_us", 1, func() error { return a.Read(page, buf) }); err != nil {
		return err
	}
	if err := probe(set, "rdma.rpc_echo_idle_us", 1, func() error {
		_, err := a.Call(b.ID(), "bench.echo", buf[:8])
		return err
	}); err != nil {
		return err
	}
	return probe(set, "rdma.atomic_idle_us", 1, func() error {
		_, err := a.FetchAdd64(word, 1)
		return err
	})
}

// probeRmem times the librmem calls of one remote page read, in the
// order the engine issues them, on the RO node's pool against a private
// page, then a PL S-latch and a one-page invalidation batch.
func probeRmem(ro *cluster.DBNode, set setFn) (err error) {
	pool := ro.Pool
	page := types.PageID{Space: probeSpace, No: 1}
	base, err := pool.Register(page) // allocates the page and keeps it referenced
	if err != nil {
		return err
	}
	defer func() {
		if uerr := pool.Unregister(page); err == nil {
			err = uerr
		}
	}()
	buf := make([]byte, types.PageSize)
	if err := pool.WritePage(base.Data, buf, base.PIB); err != nil {
		return err
	}
	var reg, read, pib, unreg []float64
	for i := 0; i < probeCalls; i++ {
		t0 := nanos()
		res, err := pool.Register(page)
		t1 := nanos()
		if err != nil {
			return err
		}
		if err := pool.ReadPage(res.Data, buf); err != nil {
			return err
		}
		t2 := nanos()
		if _, err := pool.PIBStale(res.PIB); err != nil {
			return err
		}
		t3 := nanos()
		if err := pool.Unregister(page); err != nil {
			return err
		}
		t4 := nanos()
		reg, read = append(reg, float64(t1-t0)), append(read, float64(t2-t1))
		pib, unreg = append(pib, float64(t3-t2)), append(unreg, float64(t4-t3))
	}
	setMedianUS(set, "rmem.register_hit_us", reg)
	setMedianUS(set, "rmem.read_page_us", read)
	setMedianUS(set, "rmem.pib_check_us", pib)
	setMedianUS(set, "rmem.unregister_us", unreg)

	var lock []float64
	for i := 0; i < probeCalls; i++ {
		t0 := nanos()
		if err := pool.PL().LockS(page, base.PL); err != nil {
			return err
		}
		lock = append(lock, float64(nanos()-t0))
		if err := pool.PL().UnlockS(page); err != nil {
			return err
		}
	}
	setMedianUS(set, "rmem.pl_lock_s_us", lock)
	return probe(set, "rmem.invalidate_batch_us", 1, func() error {
		return pool.InvalidateBatch([]types.PageID{page})
	})
}

// probeEngine times the RO engine's page fetch at two tiers, its read
// view, the B+tree beneath it and the storage read beneath that.
func probeEngine(ro *cluster.DBNode, w workload, set setFn) error {
	e := ro.Engine
	page := types.PageID{Space: probeSpace, No: 2}
	// drop takes the private page out of the local cache the way an
	// eviction would, releasing its pool reference.
	drop := func() error {
		if f := e.Cache().Remove(page); f != nil && f.Remote.Registered {
			return ro.Pool.Unregister(page)
		}
		return nil
	}
	fetch := func() error {
		f, err := e.Fetch(page)
		if err != nil {
			return err
		}
		e.Unpin(f)
		return nil
	}
	if err := fetch(); err != nil { // first fetch: storage miss, fills both tiers
		return err
	}
	if err := probe(set, "engine.fetch_hit_us", 1, fetch); err != nil {
		return err
	}
	var remote []float64
	for i := 0; i < probeCalls; i++ {
		if err := drop(); err != nil {
			return err
		}
		t0 := nanos()
		if err := fetch(); err != nil {
			return err
		}
		remote = append(remote, float64(nanos()-t0))
	}
	setMedianUS(set, "engine.fetch_remote_us", remote)
	if err := drop(); err != nil {
		return err
	}
	if err := probe(set, "engine.begin_ro_us", 1, func() error {
		_, err := e.BeginRO()
		return err
	}); err != nil {
		return err
	}

	name, keys := w.probeTable()
	tbl, err := e.OpenTable(name)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	pages := func() uint64 {
		s := ro.EP.Metrics().Snapshot()
		return s.Counter("engine.page.local_hit") + s.Counter("engine.page.remote_read") + s.Counter("engine.page.storage_read")
	}
	p0 := pages()
	ns, gets, err := timeCalls(1, func() error {
		_, err := tbl.Primary.Get(uint64(rng.Int63n(int64(keys))), btree.Optimistic)
		if errors.Is(err, btree.ErrKeyNotFound) {
			return nil
		}
		return err
	})
	if err != nil {
		return err
	}
	set("btree.get_us", us(ns), gets)
	set("btree.pages_per_get", ratio(float64(pages()-p0), float64(gets)), gets)
	if err := probe(set, "btree.scan100_us", 1, func() error {
		from := uint64(rng.Int63n(int64(keys - 100)))
		return tbl.Primary.Scan(from, from+100, btree.Optimistic, func(btree.KV) bool { return true })
	}); err != nil {
		return err
	}
	if _, ok := w.(*olapJoin); ok {
		batch := make([]uint64, joinBuffer)
		if err := probe(set, "engine.prefetch_batch_us", 1, func() error {
			first := 1 + uint64(rng.Int63n(int64(keys/8-joinBuffer)))
			for i := range batch {
				batch[i] = (first + uint64(i)) * 8
			}
			e.Prefetch(tbl.Primary, batch).Wait()
			return nil
		}); err != nil {
			return err
		}
	}
	header := types.PageID{Space: tbl.Space}
	return probe(set, "polarfs.get_page_probe_us", 1, func() error {
		_, _, _, err := ro.PFS.GetPage(header, polarfs.MaxLSN)
		return err
	})
}

// probeLocal times the node-local structures on instances of the
// benchmark's own: a full 256-frame cache and a redo log buffer.
func probeLocal(set setFn) error {
	const frames = 256
	lc := cache.New(frames, nil)
	id := func(n int) types.PageID { return types.PageID{Space: probeSpace, No: types.PageNo(n)} }
	next := 0
	insert := func() error {
		f, err := lc.Insert(&cache.Frame{ID: id(next)})
		if err != nil {
			return err
		}
		next++
		f.Unpin()
		return nil
	}
	for next < frames {
		if err := insert(); err != nil {
			return err
		}
	}
	if err := probe(set, "cache.insert_evict_ns", 100, insert); err != nil {
		return err
	}
	if err := probe(set, "cache.get_ns", 100, func() error {
		lc.Get(id(next - 1)).Unpin()
		return nil
	}); err != nil {
		return err
	}

	buf := plog.NewBuffer(0)
	mtr := plog.NewMTR()
	for i := 0; i < 3; i++ {
		mtr.LogWrite(id(i), 64, make([]byte, 32))
	}
	return probe(set, "plog.append_us", 100, func() error {
		buf.Append(mtr)
		if len(buf.Drain()) == 0 {
			return errors.New("plog: appended records did not reach the buffer")
		}
		return nil
	})
}
