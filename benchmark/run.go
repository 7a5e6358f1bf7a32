package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polardb/internal/cluster"
	"polardb/internal/engine"
	"polardb/internal/rdma"
	"polardb/internal/stat"
)

// client is one closed-loop session: it owns its rng, its latency samples
// and its spans, so the measured path shares nothing between clients.
type client struct {
	id   int
	sess *cluster.Session
	ro   *engine.Engine // the RO engine reads are routed to (BKP prefetch)
	rng  *rand.Rand
	stop *atomic.Bool // set when the deployment is given up: leave the loop

	traced bool   // the current op records spans
	opSpan int32  // index of the current op's span
	opID   uint32 // ops issued so far
	spans  []span

	// Ops that completed inside the measured window.
	lat       [numClasses][]float64 // latency of acknowledged ops, ms
	attempted int
	failed    int
	pair      tracedPair
	firstErr  error
	incorrect bool

	// failover_rw: last sequence number sent / acknowledged, attempts aborted.
	seq, acked uint64
	aborted    int
}

// start and end bracket one call into the system with a span when the
// current op is traced; untraced ops pay one branch each.
func (cl *client) start() int64 {
	if !cl.traced {
		return 0
	}
	return nanos()
}

func (cl *client) end(k spanKind, t0 int64) {
	if cl.traced {
		cl.spans = append(cl.spans, span{Kind: k, Start: t0, End: nanos(), Parent: cl.opSpan, Op: cl.opID})
	}
}

func (cl *client) begin() error {
	t0 := cl.start()
	err := cl.sess.Begin()
	cl.end(spBegin, t0)
	return err
}

func (cl *client) get(table string, key uint64) ([]byte, bool, error) {
	t0 := cl.start()
	v, ok, err := cl.sess.Get(table, key)
	cl.end(spGet, t0)
	return v, ok, err
}

func (cl *client) scan(table string, from, to uint64, fn func(uint64, []byte) bool) error {
	t0 := cl.start()
	err := cl.sess.Scan(table, from, to, fn)
	cl.end(spScan, t0)
	return err
}

func (cl *client) exec(table string, op cluster.WriteOp, key uint64, val []byte) error {
	t0 := cl.start()
	err := cl.sess.Exec(table, op, key, val)
	cl.end(spExec, t0)
	return err
}

func (cl *client) commit() error {
	t0 := cl.start()
	err := cl.sess.Commit()
	cl.end(spCommit, t0)
	return err
}

// prefetch runs Batched Key PrePare for keys on the RO engine and waits
// for it, as the join's probe phase does.
func (cl *client) prefetch(table string, keys []uint64) error {
	t0 := cl.start()
	tbl, err := cl.ro.OpenTable(table)
	if err == nil {
		cl.ro.Prefetch(tbl.Primary, keys).Wait()
	}
	cl.end(spPrefetch, t0)
	return err
}

// loop issues ops back to back until the window closes at to. Ops that
// complete in [from, to) are the measured ones. When tracing, every other
// op after from is traced (see tracedPair).
func (cl *client) loop(w workload, tracing bool, from, to int64) {
	cls := w.classOf(cl.id)
	for {
		t0 := nanos()
		if t0 >= to || cl.stop.Load() {
			return
		}
		cl.opID++
		cl.traced = tracing && t0 >= from && cl.opID&1 == 1
		if cl.traced {
			cl.opSpan = int32(len(cl.spans))
			cl.spans = append(cl.spans, span{Kind: spOp, Start: t0, Parent: -1, Op: cl.opID})
		}
		err := w.op(cl)
		t1 := nanos()
		if cl.traced {
			cl.spans[cl.opSpan].End = t1
		}
		if t1 < from || t1 >= to {
			continue
		}
		cl.attempted++
		if err != nil {
			cl.failed++
			if cl.firstErr == nil {
				cl.firstErr = err
			}
			cl.incorrect = cl.incorrect || errors.Is(err, errCheck)
			continue
		}
		cl.lat[cls] = append(cl.lat[cls], float64(t1-t0)/1e6)
		if cl.traced {
			cl.pair.tracedNS += float64(t1 - t0)
			cl.pair.tracedN++
		} else {
			cl.pair.plainNS += float64(t1 - t0)
			cl.pair.plainN++
		}
	}
}

// tracedPair accumulates the acknowledged ops of a traced run by whether
// they recorded spans. The two kinds alternate op by op on every client,
// so they see the same cluster state, and in a closed loop throughput is
// the inverse of mean op latency: 1 - traced/untraced throughput =
// 1 - untraced/traced mean latency.
type tracedPair struct {
	plainNS, plainN, tracedNS, tracedN float64
}

func (p *tracedPair) add(o tracedPair) {
	p.plainNS, p.plainN = p.plainNS+o.plainNS, p.plainN+o.plainN
	p.tracedNS, p.tracedN = p.tracedNS+o.tracedNS, p.tracedN+o.tracedN
}

func (p tracedPair) overheadShare() float64 {
	return 1 - ratio(ratio(p.plainNS, p.plainN), ratio(p.tracedNS, p.tracedN))
}

func sleepUntil(at int64) {
	if d := time.Duration(at - nanos()); d > 0 {
		<-time.After(d)
	}
}

// runConfig is one run of one workload.
type runConfig struct {
	def     workloadDef
	seed    int64
	warmup  time.Duration // discarded lead-in of each deployment
	window  time.Duration // measured window, split evenly over the deployments
	reps    int           // deployments set up and measured, one after the other
	latency bool          // rdma.DefaultConfig (true) or latency-free tests
	trace   bool          // traced run: per-layer metrics, else end-to-end
	outDir  string        // where the traced run writes trace-<workload>.json
	log     io.Writer     // where a deployment that is set up again is reported (nil = nowhere)
}

// runResult is what a run reports.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	samples   map[string]int // sample counts behind the timing metrics
	firstErr  error
	redone    int // deployments given up and set up again
}

// repResult is what one deployment contributed.
type repResult struct {
	setupS    float64
	lat       [numClasses][]float64 // sorted, ms
	attempted int
	failed    int
	aborted   int
	incorrect bool
	firstErr  error

	delta   stat.Snapshot // registry delta over the window, all nodes
	swapped uint64        // local-cache evictions over the window
	events  []failoverEvent
	lanes   []traceLane
	spans   spanStats
	pair    tracedPair
}

// merge pools another deployment into r: counts add up, latency samples
// (kept sorted) and spans concatenate.
func (r *repResult) merge(o *repResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.aborted += o.aborted
	r.incorrect = r.incorrect || o.incorrect
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		sort.Float64s(r.lat[k])
	}
	r.delta = stat.Total(map[string]stat.Snapshot{"pooled": r.delta, "next": o.delta})
	r.swapped += o.swapped
	r.events = append(r.events, o.events...)
	r.lanes = append(r.lanes, o.lanes...)
	r.spans.merge(o.spans)
	r.pair.add(o.pair)
}

// fabricFor returns the fabric latency profile of a run.
func fabricFor(latency bool) rdma.Config {
	if latency {
		return rdma.DefaultConfig()
	}
	return rdma.TestConfig()
}

// runRep launches and loads one deployment, drives the closed-loop
// clients through warm-up and window, checks the end state, and, given
// probes, runs the layer probes against the still-warm cluster before
// closing it.
func runRep(rc runConfig, w workload, rep int, probes setFn) (*repResult, error) {
	r := &repResult{}
	t0 := time.Now()
	cfg := w.config()
	cfg.Fabric = fabricFor(rc.latency)
	cfg.RONodes = 1
	cfg.HeartbeatInterval = time.Hour // failover is driven by the benchmark
	cfg.CheckpointInterval = 200 * time.Millisecond
	c, err := cluster.Launch(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer c.Close()
	if err := w.load(c); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setupS = time.Since(t0).Seconds()
	if err := w.prepare(c); err != nil {
		return nil, fmt.Errorf("set-up pass: %w", err)
	}
	// Collect the previous deployment and the load's garbage now, so that
	// every window starts from the same collector state.
	runtime.GC()

	var stop atomic.Bool
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = &client{id: i, sess: c.Proxy.Connect(), ro: c.ROs[0].Engine, stop: &stop,
			rng: rand.New(rand.NewSource(rc.seed + int64(rep*clients+i)))}
	}
	from := nanos() + int64(rc.warmup)
	to := from + int64(rc.window)/int64(rc.reps)
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(w, rc.trace, from, to)
		}()
	}
	done := make(chan struct{}) // closed when every client has left its loop
	go func() {
		wg.Wait()
		close(done)
	}()

	// The window: registry snapshots at both edges, the failover
	// controller in between.
	sleepUntil(from)
	engines := []*engine.Engine{c.RW.Engine, c.ROs[0].Engine}
	before, swappedBefore := stat.Total(c.Fabric.Metrics().Snapshot()), swappedOut(engines)
	var ctlSpans []span
	if fo, ok := w.(*failoverRW); ok {
		var added []*cluster.DBNode
		var ctlErr error
		r.events, ctlSpans, added, ctlErr = fo.control(c, from, to, done)
		if ctlErr != nil {
			// The deployment may have no RW node left: the clients must not
			// keep retrying against it until the window ends.
			stop.Store(true)
			<-done
			return nil, ctlErr
		}
		for _, n := range added {
			engines = append(engines, n.Engine)
		}
	}
	sleepUntil(to)
	r.delta = stat.Total(c.Fabric.Metrics().Snapshot()).Sub(before)
	r.swapped = swappedOut(engines) - swappedBefore
	<-done

	for _, cl := range cls {
		cl.sess.Close()
		r.attempted += cl.attempted
		r.failed += cl.failed
		r.aborted += cl.aborted
		if r.firstErr == nil {
			r.firstErr = cl.firstErr
		}
		r.incorrect = r.incorrect || cl.incorrect
		for k := range r.lat {
			r.lat[k] = append(r.lat[k], cl.lat[k]...)
		}
		if rc.trace {
			r.spans.merge(summarize(cl.spans))
			r.pair.add(cl.pair)
			r.lanes = append(r.lanes, lane(fmt.Sprintf("deployment-%d/client-%d", rep, cl.id), cl.spans))
		}
	}
	if rc.trace && len(ctlSpans) > 0 {
		r.lanes = append(r.lanes, lane(fmt.Sprintf("deployment-%d/controller", rep), ctlSpans))
	}
	for k := range r.lat {
		sort.Float64s(r.lat[k])
	}
	if err := w.verify(c, cls); err != nil {
		if !errors.Is(err, errCheck) {
			return nil, fmt.Errorf("end-state check: %w", err)
		}
		r.incorrect, r.firstErr = true, err
	}
	if probes != nil {
		if err := runProbes(c, w, c.ROs[0], probes); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return r, nil
}

func runWorkload(rc runConfig) (*runResult, error) {
	w := rc.def.make()
	res := &runResult{correct: true, metrics: map[string]float64{}, samples: map[string]int{}}
	var set setFn = func(name string, v float64, n int) {
		res.metrics[name] = v
		if n > 0 {
			res.samples[name] = n
		}
	}
	if rc.trace {
		// Per-layer metrics: every name, 0 where it does not apply.
		for _, d := range perLayer {
			res.metrics[d.Name] = 0
		}
		store := set
		set = func(name string, v float64, n int) {
			if _, ok := res.metrics[name]; !ok {
				panic("benchmark: metric " + name + " is not in the perLayer table")
			}
			store(name, v, n)
		}
	}

	// The deployments, one after the other; all pools them.
	var rs []*repResult
	var setup []float64
	all := &repResult{}
	for rep := 0; rep < rc.reps; {
		var probes setFn
		if rc.trace && rep == rc.reps-1 {
			probes = set
		}
		r, err := runRep(rc, w, rep, probes)
		if err != nil {
			// The deployment itself broke (a launch, promotion, AddRO or
			// probe call returned an error): it is given up, reported and
			// set up again with the same inputs, spareReps times a run at
			// most. A wrong output is never retried.
			if errors.Is(err, errCheck) || res.redone == spareReps {
				return nil, err
			}
			res.redone++
			if rc.log != nil {
				fmt.Fprintf(rc.log, "benchmark: deployment %d given up and set up again: %v\n", rep, err)
			}
			continue
		}
		rep++
		rs = append(rs, r)
		setup = append(setup, r.setupS)
		all.merge(r)
	}
	res.attempted, res.failed, res.correct, res.firstErr = all.attempted, all.failed, !all.incorrect, all.firstErr
	lat, events, spans := all.lat, all.events, all.spans
	seconds := rc.window.Seconds()

	if !rc.trace {
		// Throughput and median latency are the medians over the
		// deployments; the tail needs the samples, so it is taken over
		// the pooled ops of all three.
		var perS, p50 []float64
		for _, r := range rs {
			l := r.lat[rc.def.primary]
			perS = append(perS, float64(len(l))*float64(rc.reps)/seconds)
			p50 = append(p50, percentile(l, 0.5))
		}
		n := len(lat[rc.def.primary])
		set("setup_s", median(setup), len(setup))
		set("txn_per_s", median(perS), n)
		set("p50_ms", median(p50), n)
		set("tail_ms", percentile(lat[rc.def.primary], rc.def.tailQ), n)
		set("peak_rss_mb", peakRSSMB(), 0)
		return res, nil
	}

	ops := float64(len(lat[classRead]) + len(lat[classWrite]))
	for name, v := range layerCounts(all.delta, ops, float64(len(lat[classWrite])), float64(len(events)), seconds) {
		set(name, v, 0)
	}
	// ROADMAP item 1(d)'s gap as a number: mean verb time under load over
	// the configured model (a page read moves 4 KiB).
	model := fabricFor(rc.latency)
	scale := func(d time.Duration) float64 { return float64(d) * model.TimeScale / 1e3 }
	set("rdma.read_model_ratio", ratio(res.metrics["rdma.read_mean_us"], scale(model.OneSidedRead+4*model.PerKB)), 0)
	set("rdma.rpc_model_ratio", ratio(res.metrics["rdma.rpc_mean_us"], scale(model.RPC)), 0)
	set("cache.swapped_out_per_op", ratio(float64(all.swapped), ops), 0)
	for k, prefix := range [numClasses]string{classRead: "cluster.read_", classWrite: "cluster.write_"} {
		n := len(lat[k])
		set(prefix+"txn_per_s", float64(n)/seconds, n)
		set(prefix+"p50_ms", percentile(lat[k], 0.5), n)
		set(prefix+"tail_ms", percentile(lat[k], rc.def.tailQ), n)
	}
	set("cluster.failed_share", ratio(float64(res.failed), float64(res.attempted)), res.attempted)
	set("cluster.aborted_attempt_share", ratio(float64(all.aborted), float64(all.aborted)+ops), 0)
	set("cluster.deployments_redone", float64(res.redone), 0)

	for k, name := range map[spanKind]string{spBegin: "cluster.begin_us", spGet: "cluster.get_us",
		spScan: "cluster.scan_us", spExec: "cluster.exec_us", spCommit: "cluster.commit_us"} {
		set(name, us(median(spans.byKind[k])), len(spans.byKind[k]))
	}
	set("cluster.commit_share", ratio(spans.commitNS, spans.writeNS), 0)
	set("cluster.driver_self_share", ratio(spans.selfNS, spans.opNS), len(spans.byKind[spOp]))
	set("cluster.trace_overhead_share", all.pair.overheadShare(), int(all.pair.tracedN))
	if len(events) > 0 {
		var promote, addRO, first []float64
		for _, e := range events {
			promote, addRO, first = append(promote, e.promote/1e6), append(addRO, e.addRO/1e6), append(first, e.firstCommit/1e6)
		}
		set("cluster.failovers", float64(len(events)), 0)
		set("cluster.failover_p50_ms", median(first), len(events))
		set("cluster.promote_ms", median(promote), len(events))
		set("cluster.add_ro_ms", median(addRO), len(events))
		set("cluster.first_commit_gap_ms", res.metrics["cluster.failover_p50_ms"]-res.metrics["cluster.promote_ms"], 0)
	}
	if rc.outDir != "" {
		path := filepath.Join(rc.outDir, "trace-"+rc.def.name+".json")
		if err := writeTrace(path, rc.def.name, rc.seed, all.lanes); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// swappedOut sums the local caches' eviction counts.
func swappedOut(engines []*engine.Engine) uint64 {
	var n uint64
	for _, e := range engines {
		n += e.Cache().Stats().SwappedOut
	}
	return n
}
