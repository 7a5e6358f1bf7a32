package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"polardb/internal/cluster"
	wl "polardb/internal/workload"
)

// class is the kind of op a client issues: a read-only op served by the
// RO node, or a read-write transaction committed on the RW node.
type class uint8

const (
	classRead class = iota
	classWrite
	numClasses
)

// clients is the number of closed-loop sessions of every workload: one
// per core of the 2-core box the sizes below were chosen on. Each client
// sends its next op only when the previous one returned.
const clients = 2

// workload is one set of inputs the benchmark runs.
type workload interface {
	// config sizes the deployment (fabric and common settings are added
	// by the runner).
	config() cluster.Config
	// load creates and fills the tables; it is timed as part of setup_s.
	load(c *cluster.Cluster) error
	// prepare runs untimed after load (reference passes for the checks).
	prepare(c *cluster.Cluster) error
	// classOf tells which class client i issues.
	classOf(client int) class
	// op issues one op through cl and checks what it returned. A failed
	// output check returns an error wrapping errCheck.
	op(cl *client) error
	// verify checks the end state after the clients stopped.
	verify(c *cluster.Cluster, cls []*client) error
	// probeTable names a loaded table and its key count, for the probes.
	probeTable() (string, uint64)
}

// workloadDef lists a workload with the class and tail percentile its
// end-to-end metrics are reported for. The percentile is fixed per
// workload so that runs compare; README gives the sample counts behind
// each choice (failover_rw: p99 falls between the ops a kill stalled and
// the rest and jumps from run to run; p99.9 has ten samples beyond it
// only on a fast run; p99.8 has twenty and lies among the stalled ops).
type workloadDef struct {
	name    string
	primary class
	tailQ   float64
	make    func() workload
}

var workloads = []workloadDef{
	{"oltp_rw_hot", classWrite, 0.99, func() workload {
		return &oltp{sb: sysbench{rows: 3000, payload: 120, rangeSize: 100}, writer: true,
			cfg: cluster.Config{LocalCachePages: 256, MemorySlabs: 8, SlabPages: 256}}
	}},
	{"oltp_ro_remote", classRead, 0.99, func() workload {
		return &oltp{sb: sysbench{rows: 8000, payload: 120, rangeSize: 20},
			cfg: cluster.Config{LocalCachePages: 64, MemorySlabs: 16, SlabPages: 256}}
	}},
	{"olap_join_cold", classRead, 0.95, func() workload {
		return &olapJoin{tpch: wl.TPCH{SF: 2}, slice: 0.05}
	}},
	{"failover_rw", classWrite, 0.998, func() workload {
		return &failoverRW{sb: sysbench{rows: 8000, payload: 96, rangeSize: 20, skewed: true, noDelete: true},
			killEvery: 800 * time.Millisecond}
	}},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// errCheck marks an output that was wrong, as opposed to an op that
// returned an error: the run is then incorrect and exits non-zero.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// sysbench-shaped table and transactions
//
// The table is loaded by wl.Sysbench; the transactions mirror
// Sysbench.ReadOnlyTxn / ReadWriteTxn statement for statement, but are
// issued through the client's timed Session wrappers and check every row
// they read. Write keys are taken in ascending order so two writers can
// wait for each other's row locks but never deadlock.

type sysbench struct {
	rows      uint64
	payload   int
	rangeSize uint64
	skewed    bool
	// noDelete turns the transaction's delete+insert into a third update.
	// failover_rw sets it: after an unplanned failover, a row that a lost
	// transaction had deleted and not yet re-inserted can read as missing
	// (README, finding 4), and a benchmark's workloads must not fail.
	noDelete bool
}

func (s *sysbench) load(c *cluster.Cluster) error {
	dist := wl.Uniform
	if s.skewed {
		dist = wl.Skewed
	}
	sb := wl.Sysbench{Rows: s.rows, PayloadSize: s.payload, Dist: dist, RangeSize: s.rangeSize}
	return sb.Load(c)
}

// pick draws a point key: uniform, or 95 % of draws from the hottest 5 %.
func (s *sysbench) pick(rng *rand.Rand) uint64 {
	if !s.skewed {
		return uint64(rng.Int63n(int64(s.rows)))
	}
	hot := s.rows / 20
	if rng.Intn(100) < 95 {
		return uint64(rng.Int63n(int64(hot)))
	}
	return hot + uint64(rng.Int63n(int64(s.rows-hot)))
}

// fill is the generator's row payload: byte i is 'a'+(seed+i)%26 in byte
// arithmetic, the same bytes wl.Sysbench loads with seed = key.
func fill(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = 'a' + (seed+byte(i))%26
	}
	return b
}

// checkRow verifies a row read for key. The loader writes seed byte(key);
// the write transaction rewrites rows with seed byte(key) or byte(key+1).
func (s *sysbench) checkRow(key uint64, v []byte, found bool) error {
	if !found {
		return checkf("key %d: row missing", key)
	}
	if len(v) != s.payload {
		return checkf("key %d: payload of %d bytes, want %d", key, len(v), s.payload)
	}
	for _, seed := range [2]byte{byte(key), byte(key + 1)} {
		ok := true
		for i, b := range v {
			if b != 'a'+(seed+byte(i))%26 {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
	}
	return checkf("key %d: payload %q is not the generator's", key, v[:8])
}

// pointGets issues n checked point selects.
func (s *sysbench) pointGets(cl *client, n int) error {
	for i := 0; i < n; i++ {
		k := s.pick(cl.rng)
		v, ok, err := cl.get(wl.TableName, k)
		if err != nil {
			return err
		}
		if err := s.checkRow(k, v, ok); err != nil {
			return err
		}
	}
	return nil
}

// rangeSelect scans span rows from a random start and checks that
// exactly those rows come back in ascending key order.
func (s *sysbench) rangeSelect(cl *client, span uint64) error {
	start := uint64(cl.rng.Int63n(int64(s.rows - span + 1)))
	next := start
	var bad error
	err := cl.scan(wl.TableName, start, start+span, func(k uint64, v []byte) bool {
		if k != next {
			bad = checkf("range [%d,%d): got key %d, want %d", start, start+span, k, next)
			return false
		}
		next++
		bad = s.checkRow(k, v, true)
		return bad == nil
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	if next != start+span {
		return checkf("range [%d,%d): %d rows, want %d", start, start+span, next-start, span)
	}
	return nil
}

// readOnlyTxn is sysbench oltp_read_only in autocommit: 10 point selects
// and one range select of rangeSize rows, all routed to the RO node.
func (s *sysbench) readOnlyTxn(cl *client) error {
	if err := s.pointGets(cl, 10); err != nil {
		return err
	}
	return s.rangeSelect(cl, s.rangeSize)
}

// readWriteTxn is sysbench oltp_read_write in one transaction on the RW
// node: 10 point selects, a range select of rangeSize/10 rows, 2 updates
// and 1 delete+insert (an update with noDelete), then extra (the failover
// ledger write) and Commit.
func (s *sysbench) readWriteTxn(cl *client, extra func() error) error {
	if err := cl.begin(); err != nil {
		return err
	}
	err := func() error {
		if err := s.pointGets(cl, 10); err != nil {
			return err
		}
		if err := s.rangeSelect(cl, s.rangeSize/10); err != nil {
			return err
		}
		var keys [3]uint64
		for i := 0; i < len(keys); {
			k := s.pick(cl.rng)
			if (i > 0 && keys[0] == k) || (i > 1 && keys[1] == k) {
				continue // redraw: three distinct rows
			}
			keys[i] = k
			i++
		}
		sort.Slice(keys[:], func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys[:2] {
			if err := cl.exec(wl.TableName, cluster.OpPut, k, fill(s.payload, byte(k+1))); err != nil {
				return err
			}
		}
		k := keys[2]
		if !s.noDelete {
			if err := cl.exec(wl.TableName, cluster.OpDelete, k, nil); err != nil {
				return err
			}
		}
		if err := cl.exec(wl.TableName, cluster.OpPut, k, fill(s.payload, byte(k))); err != nil {
			return err
		}
		if extra != nil {
			return extra()
		}
		return nil
	}()
	if err != nil {
		_ = cl.sess.Rollback()
		return err
	}
	return cl.commit()
}

// oltp covers the two OLTP workloads: with writer, client 0 runs
// read-write transactions on the RW node while client 1 reads the same
// rows on the RO node; without, both clients read on the RO node.
type oltp struct {
	sb     sysbench
	cfg    cluster.Config
	writer bool
}

func (w *oltp) config() cluster.Config         { return w.cfg }
func (w *oltp) load(c *cluster.Cluster) error  { return w.sb.load(c) }
func (w *oltp) prepare(*cluster.Cluster) error { return nil }
func (w *oltp) probeTable() (string, uint64)   { return wl.TableName, w.sb.rows }

func (w *oltp) classOf(client int) class {
	if w.writer && client == 0 {
		return classWrite
	}
	return classRead
}

func (w *oltp) op(cl *client) error {
	if w.classOf(cl.id) == classWrite {
		return w.sb.readWriteTxn(cl, nil)
	}
	return w.sb.readOnlyTxn(cl)
}

func (w *oltp) verify(*cluster.Cluster, []*client) error { return nil }

// ---------------------------------------------------------------------------
// olap_join_cold: an indexed join over a random contiguous slice of
// h_orders, probing h_lineitem and h_customer by point get with Batched
// Key PrePare on the RO engine. It is wl.TPCH's customerJoin shape,
// written here because TPCH.Run takes no range.

const joinBuffer = 64

type olapJoin struct {
	tpch  wl.TPCH
	slice float64 // share of h_orders one op joins

	// rowsUpTo[o] is the number of lineitem rows of orders 1..o, counted
	// by prepare's untimed pass; a slice's expected row count follows.
	rowsUpTo []int
}

func (w *olapJoin) config() cluster.Config {
	return cluster.Config{LocalCachePages: 64, MemorySlabs: 2, SlabPages: 128}
}
func (w *olapJoin) load(c *cluster.Cluster) error { return w.tpch.Load(c) }
func (w *olapJoin) classOf(int) class             { return classRead }
func (w *olapJoin) probeTable() (string, uint64) {
	return wl.HLineitem, uint64(w.tpch.Orders()) * 8
}
func (w *olapJoin) verify(*cluster.Cluster, []*client) error { return nil }

func field(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }

// prepare scans both join inputs once: the lineitem rows actually stored
// per order must match the count each order row declares.
func (w *olapJoin) prepare(c *cluster.Cluster) error {
	orders := w.tpch.Orders()
	stored := make([]int, orders+1)
	s := c.Proxy.Connect()
	defer s.Close()
	if err := s.Scan(wl.HLineitem, 0, ^uint64(0), func(k uint64, _ []byte) bool {
		if o := k / 8; o <= uint64(orders) {
			stored[o]++
		}
		return true
	}); err != nil {
		return err
	}
	w.rowsUpTo = make([]int, orders+1)
	seen := 0
	var bad error
	if err := s.Scan(wl.HOrders, 0, ^uint64(0), func(k uint64, v []byte) bool {
		seen++
		if k != uint64(seen) || int(field(v, 3)) != stored[seen] {
			bad = checkf("order %d (row %d) declares %d lineitems, %d stored", k, seen, field(v, 3), stored[seen])
			return false
		}
		w.rowsUpTo[seen] = w.rowsUpTo[seen-1] + stored[seen]
		return true
	}); err != nil {
		return err
	}
	if bad == nil && seen != orders {
		bad = checkf("h_orders holds %d rows, want %d", seen, orders)
	}
	return bad
}

func (w *olapJoin) op(cl *client) error {
	orders := w.tpch.Orders()
	n := int(float64(orders) * w.slice)
	lo := 1 + cl.rng.Intn(orders-n+1)
	rows := 0
	var custKeys, liKeys []uint64
	var lineCounts []int
	if err := cl.scan(wl.HOrders, uint64(lo), uint64(lo+n), func(k uint64, v []byte) bool {
		rows++
		custKeys = append(custKeys, field(v, 0))
		liKeys = append(liKeys, k*8)
		lineCounts = append(lineCounts, int(field(v, 3)))
		return true
	}); err != nil {
		return err
	}
	for b := 0; b < len(liKeys); b += joinBuffer {
		e := min(b+joinBuffer, len(liKeys))
		if err := cl.prefetch(wl.HLineitem, liKeys[b:e]); err != nil {
			return err
		}
		for i := b; i < e; i++ {
			for l := 0; l < lineCounts[i]; l++ {
				_, ok, err := cl.get(wl.HLineitem, liKeys[i]+uint64(l))
				if err != nil {
					return err
				}
				if ok {
					rows++
				}
			}
		}
	}
	for b := 0; b < len(custKeys); b += joinBuffer {
		e := min(b+joinBuffer, len(custKeys))
		if err := cl.prefetch(wl.HCustomer, custKeys[b:e]); err != nil {
			return err
		}
		for _, k := range custKeys[b:e] {
			_, ok, err := cl.get(wl.HCustomer, k)
			if err != nil {
				return err
			}
			if ok {
				rows++
			}
		}
	}
	if want := 2*n + w.rowsUpTo[lo+n-1] - w.rowsUpTo[lo-1]; rows != want {
		return checkf("join of orders [%d,%d): %d rows, the set-up pass counted %d", lo, lo+n, rows, want)
	}
	return nil
}

// ---------------------------------------------------------------------------
// failover_rw: two writers, and a controller that crashes the RW node
// every killEvery: kill, promote the RO, attach a fresh RO. Each op is one
// logical transaction — the sysbench read-write mix plus a put of the
// client's next sequence number into its own bench_ledger row — retried
// until a commit is acknowledged, as an application would. No op fails;
// the aborted attempts are counted per layer.

const (
	ledgerTable = "bench_ledger"
	maxAttempts = 200
)

type failoverRW struct {
	sb        sysbench
	killEvery time.Duration

	// killedAt is the trace-clock time of the kill being recovered from
	// (0 = none); firstAck the first commit acknowledged for a
	// transaction begun after it.
	killedAt atomic.Int64
	firstAck atomic.Int64
}

func (w *failoverRW) config() cluster.Config {
	return cluster.Config{LocalCachePages: 256, MemorySlabs: 8, SlabPages: 256}
}
func (w *failoverRW) classOf(int) class              { return classWrite }
func (w *failoverRW) prepare(*cluster.Cluster) error { return nil }
func (w *failoverRW) probeTable() (string, uint64)   { return wl.TableName, w.sb.rows }

func (w *failoverRW) load(c *cluster.Cluster) error {
	if err := w.sb.load(c); err != nil {
		return err
	}
	_, err := c.RW.Engine.CreateTable(ledgerTable)
	return err
}

func seqBytes(seq uint64) []byte { return binary.LittleEndian.AppendUint64(nil, seq) }

func (w *failoverRW) op(cl *client) error {
	cl.seq++
	val := seqBytes(cl.seq)
	ledger := func() error { return cl.exec(ledgerTable, cluster.OpPut, uint64(cl.id), val) }
	for attempt := 1; ; attempt++ {
		begun := nanos()
		err := w.sb.readWriteTxn(cl, ledger)
		if err == nil {
			cl.acked = cl.seq
			if k := w.killedAt.Load(); k != 0 && begun >= k {
				w.firstAck.CompareAndSwap(0, nanos())
			}
			return nil
		}
		if errors.Is(err, errCheck) || attempt == maxAttempts || cl.stop.Load() {
			return err
		}
		cl.aborted++
	}
}

// failoverEvent is one kill as the controller saw it (nanoseconds).
type failoverEvent struct {
	promote, addRO, firstCommit float64
}

// control crashes the RW node every killEvery between from and to (trace
// clock), leaving the last half interval quiet so that commits follow
// the last promotion. It returns the events, its spans, and the RO nodes
// it attached. done is closed when the clients have left their loops: a
// kill that no client was left to commit after is not an event.
func (w *failoverRW) control(c *cluster.Cluster, from, to int64, done <-chan struct{}) ([]failoverEvent, []span, []*cluster.DBNode, error) {
	var events []failoverEvent
	var spans []span
	var added []*cluster.DBNode
	mark := func(k spanKind, start int64) {
		spans = append(spans, span{Kind: k, Start: start, End: nanos(), Parent: -1, Op: uint32(len(events))})
	}
	every := int64(w.killEvery)
	for at := from + every/2; at+every/2 <= to; at += every {
		sleepUntil(at)
		kill := nanos()
		w.firstAck.Store(0)
		w.killedAt.Store(kill)
		c.Proxy.RWNodeKill()
		mark(spKill, kill)
		t0 := nanos()
		if err := c.CM.Failover(false); err != nil {
			return nil, nil, nil, fmt.Errorf("failover %d: %w", len(events)+1, err)
		}
		t1 := nanos()
		mark(spFailover, t0)
		ro, err := c.AddRO()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("failover %d: attaching an RO: %w", len(events)+1, err)
		}
		t2 := nanos()
		mark(spAddRO, t1)
		added = append(added, ro)
		ack, clientsLeft := w.firstAck.Load(), false
		tick := time.NewTicker(200 * time.Microsecond)
		for ; ack == 0 && !clientsLeft; ack = w.firstAck.Load() {
			if nanos() > kill+int64(10*time.Second) {
				tick.Stop()
				return nil, nil, nil, fmt.Errorf("failover %d: no commit acknowledged within 10 s of the kill", len(events)+1)
			}
			select {
			case <-tick.C:
			case <-done:
				clientsLeft = true
			}
		}
		tick.Stop()
		w.killedAt.Store(0)
		if ack == 0 {
			break
		}
		events = append(events, failoverEvent{
			promote: float64(t1 - t0), addRO: float64(t2 - t1), firstCommit: float64(ack - kill)})
	}
	return events, spans, added, nil
}

// verify reads every client's ledger row on the RW node after the last
// promotion: it must hold a sequence number no older than the last one
// acknowledged to that client and no newer than the last one it sent.
func (w *failoverRW) verify(c *cluster.Cluster, cls []*client) error {
	s := c.Proxy.Connect()
	defer s.Close()
	if err := s.Begin(); err != nil {
		return err
	}
	defer func() { _ = s.Rollback() }()
	for _, cl := range cls {
		v, ok, err := s.Get(ledgerTable, uint64(cl.id))
		if err != nil {
			return err
		}
		if !ok || len(v) != 8 {
			if cl.acked == 0 {
				continue
			}
			return checkf("client %d: ledger row missing after %d acknowledged commits", cl.id, cl.acked)
		}
		if got := binary.LittleEndian.Uint64(v); got < cl.acked || got > cl.seq {
			return checkf("client %d: ledger holds %d, acknowledged %d, sent %d", cl.id, got, cl.acked, cl.seq)
		}
	}
	return nil
}
