package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"polardb/internal/cluster"
	"polardb/internal/stat"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {39, 0}, {40, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 0.99); p != 990 { // ten samples beyond it
		t.Errorf("p99 of 1..1000 = %g, want 990", p)
	}
	if p := percentile(xs, 0.5); p != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("p50 of nothing = %g, want 0", p)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Kind: spOp, Start: 0, End: 100, Parent: -1, Op: 1},
		{Kind: spBegin, Start: 5, End: 10, Parent: 0, Op: 1},
		{Kind: spGet, Start: 10, End: 30, Parent: 0, Op: 1},
		{Kind: spCommit, Start: 50, End: 90, Parent: 0, Op: 1},
		{Kind: spOp, Start: 100, End: 150, Parent: -1, Op: 2}, // read-only op
		{Kind: spGet, Start: 110, End: 150, Parent: 4, Op: 2},
	}
	st := summarize(spans)
	if st.opNS != 150 || st.selfNS != 35+10 {
		t.Errorf("op %g self %g, want 150 and 45", st.opNS, st.selfNS)
	}
	if st.writeNS != 100 || st.commitNS != 40 {
		t.Errorf("write op time %g commit %g, want 100 and 40 (the op without a commit is not a write)", st.writeNS, st.commitNS)
	}
	if n := len(st.byKind[spGet]); n != 2 {
		t.Errorf("%d get spans, want 2", n)
	}
	var sum spanStats
	sum.merge(st)
	sum.merge(st)
	if sum.selfNS != 90 || len(sum.byKind[spOp]) != 4 {
		t.Errorf("merge: self %g ops %d, want 90 and 4", sum.selfNS, len(sum.byKind[spOp]))
	}
}

func TestLayerCountsNormalise(t *testing.T) {
	// Two nodes, snapshots at both window edges: only the delta counts,
	// summed over nodes, divided by the window's ops.
	ns := stat.NewNodeSet()
	rw, ro := ns.Node("rw0"), ns.Node("ro0")
	rw.Counter("rdma.rpc.ops").Add(1000) // before the window
	ro.Counter("engine.page.local_hit").Add(7)
	before := stat.Total(ns.Snapshot())
	rw.Counter("rdma.rpc.ops").Add(300)
	ro.Counter("rdma.rpc.ops").Add(100)
	ro.Counter("engine.page.local_hit").Add(60)
	ro.Counter("engine.page.remote_read").Add(30)
	ro.Counter("engine.page.storage_read").Add(10)
	rw.Counter("engine.mtr.commit").Add(80)
	rw.Counter("rmem.invalidate.sent").Add(80)
	ro.Counter("rmem.register.ops").Add(30)
	ro.Counter("rmem.unregister.ops").Add(30)
	ro.Counter("rmem.page_read.ops").Add(30)
	rw.Histogram("rdma.rpc.us").Observe(17 * time.Microsecond)
	rw.Histogram("rdma.rpc.us").Observe(23 * time.Microsecond)
	d := stat.Total(ns.Snapshot()).Sub(before)

	got := layerCounts(d, 100, 10, 0, 5)
	for name, want := range map[string]float64{
		"rdma.rpcs_per_op":                  4,
		"engine.local_hit_share":            0.6,
		"engine.remote_reads_per_op":        0.3,
		"engine.storage_reads_per_op":       0.1,
		"engine.mtrs_per_write_txn":         8,
		"rmem.invalidations_per_mtr":        1,
		"rmem.rpcs_per_remote_read":         2,
		"rdma.rpc_mean_us":                  20,
		"rdma.rpc_p99_bucket_us":            32, // bucket bound, a power of two
		"polarfs.read_redo_per_failover":    0,  // no failovers: 0, not NaN
		"parallelraft.appends_per_proposal": 0,
	} {
		if g := got[name]; math.Abs(g-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, g, want)
		}
	}
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	for name, v := range got {
		if !known[name] {
			t.Errorf("layerCounts computes %s, which the perLayer table does not list", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %g", name, v)
		}
	}
	// A read-only window has no write transactions: per-write-txn metrics read 0.
	if v := layerCounts(d, 100, 0, 0, 5)["engine.mtrs_per_write_txn"]; v != 0 {
		t.Errorf("mtrs_per_write_txn without writes = %g, want 0", v)
	}
}

func TestAgreeVerdicts(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	for _, tc := range []struct {
		a, b, sa, sb, bound float64
		better, want        string
	}{
		{100, 105, 0.01, 0.01, 0.10, "lower", "ok"},
		{100, 111, 0.01, 0.01, 0.10, "lower", "regressed"},
		{100, 80, 0.01, 0.01, 0.10, "lower", "ok"}, // an improvement is not a regression
		{100, 89, 0.01, 0.01, 0.10, "higher", "regressed"},
		{100, 120, 0.01, 0.01, 0.10, "higher", "ok"},
		{100, 150, 0.20, 0.01, 0.10, "lower", "unresolved"}, // spread wider than the bound
		{100, 100, 0.01, 0.11, 0.10, "higher", "unresolved"},
	} {
		if got := verdict(tc.a, tc.b, tc.sa, tc.sb, tc.bound, tc.better); got != tc.want {
			t.Errorf("verdict(%+v) = %s, want %s", tc, got, tc.want)
		}
	}

	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	runs := func(vals ...float64) string {
		var b strings.Builder
		for _, v := range vals {
			r := record{Workload: "w", resultLine: resultLine{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"lat_ms": {v, "ms"}, "layer.x": {v, "count"}}}}
			line, _ := json.Marshal(r)
			b.Write(append(line, '\n'))
		}
		return b.String()
	}
	contract := write("BENCHMARK.json", `{"workloads":[{"name":"w","why":"x"}],
		"end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"layer.x","unit":"count","better":"lower"}]}`)
	base := write("a.jsonl", runs(10, 10.1, 9.9, 10, 10.2))
	same := write("b.jsonl", runs(10.3, 10.2, 10.4, 10.3, 10.1))
	slow := write("c.jsonl", runs(12, 12.1, 11.9, 12, 12.2))
	var out, errOut bytes.Buffer
	if code := agreeFiles(base, same, contract, &out, &errOut); code != 0 {
		t.Errorf("two sets within the bound: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := agreeFiles(base, slow, contract, &out, &errOut); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 20 %% slower set: exit %d, want 1 and a regressed row\n%s", code, out.String())
	}
	if strings.Count(out.String(), "layer.x") != 1 {
		t.Errorf("per-layer metrics are listed without a verdict:\n%s", out.String())
	}
	if code := agreeFiles(base, filepath.Join(dir, "missing.jsonl"), contract, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// TestContractMatchesTables pins BENCHMARK.json to the tables the program
// prints from: same workloads, same metric names and units.
func TestContractMatchesTables(t *testing.T) {
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if (m.Bound != nil) != (kind == "end_to_end") {
				t.Errorf("%s %s: only end-to-end metrics carry a bound", kind, m.Name)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

func TestChecksCatchWrongOutput(t *testing.T) {
	sb := sysbench{rows: 100, payload: 16, rangeSize: 10}
	if err := sb.checkRow(7, fill(16, 7), true); err != nil {
		t.Errorf("the loader's row: %v", err)
	}
	if err := sb.checkRow(7, fill(16, 8), true); err != nil {
		t.Errorf("the write transaction's row: %v", err)
	}
	for name, err := range map[string]error{
		"another key's row": sb.checkRow(7, fill(16, 9), true),
		"a short row":       sb.checkRow(7, fill(15, 7), true),
		"a missing row":     sb.checkRow(7, nil, false),
	} {
		if !errors.Is(err, errCheck) {
			t.Errorf("%s passed the check (%v)", name, err)
		}
	}
}

// brokenOnce is a workload whose first deployment fails to load and whose
// set-up pass can be made to fail an output check.
type brokenOnce struct {
	workload
	loads    int
	badCheck bool
}

func (b *brokenOnce) load(c *cluster.Cluster) error {
	if b.loads++; b.loads == 1 {
		return errors.New("injected: the first load fails")
	}
	return b.workload.load(c)
}

func (b *brokenOnce) prepare(c *cluster.Cluster) error {
	if b.badCheck {
		return checkf("injected: wrong output")
	}
	return b.workload.prepare(c)
}

// TestBrokenDeploymentIsRedone: a deployment that breaks is given up, set
// up again and counted; a wrong output fails the run without a retry.
func TestBrokenDeploymentIsRedone(t *testing.T) {
	var b *brokenOnce
	def := workloads[0]
	inner := def.make
	def.make = func() workload { b = &brokenOnce{workload: inner()}; return b }
	var log bytes.Buffer
	rc := runConfig{def: def, seed: 1, warmup: 20 * time.Millisecond, window: 200 * time.Millisecond,
		reps: 1, trace: true, log: &log}
	res, err := runWorkload(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.redone != 1 || res.metrics["cluster.deployments_redone"] != 1 || b.loads != 2 {
		t.Errorf("redone %d, metric %g, loads %d; want 1, 1, 2", res.redone, res.metrics["cluster.deployments_redone"], b.loads)
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Errorf("correct %v, %d of %d ops failed", res.correct, res.failed, res.attempted)
	}
	if !strings.Contains(log.String(), "injected: the first load fails") {
		t.Errorf("the deployment given up is not reported: %q", log.String())
	}

	def.make = func() workload { b = &brokenOnce{workload: inner(), loads: 1, badCheck: true}; return b }
	rc.def = def
	if _, err := runWorkload(rc); !errors.Is(err, errCheck) || b.loads != 2 {
		t.Errorf("a wrong output: err %v after %d loads, want errCheck after one", err, b.loads-1)
	}
}

// TestWorkloadSmoke runs every workload for a second with fabric latency
// off, traced, so that the output checks, the failover controller, the
// ledger check and the probes all execute; beside them one untraced run
// for the end-to-end metrics. The runs share the wall clock (goroutines,
// not t.Parallel, whose width follows GOMAXPROCS).
func TestWorkloadSmoke(t *testing.T) {
	type outcome struct {
		res *runResult
		err error
	}
	traced := make([]outcome, len(workloads))
	var untraced outcome
	var wg sync.WaitGroup
	for i, def := range workloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runWorkload(runConfig{def: def, seed: 1, warmup: 100 * time.Millisecond,
				window: time.Second, reps: 1, trace: true, outDir: t.TempDir()})
			traced[i] = outcome{res, err}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := runWorkload(runConfig{def: workloads[0], seed: 2, warmup: 50 * time.Millisecond,
			window: 400 * time.Millisecond, reps: 2})
		untraced = outcome{res, err}
	}()
	wg.Wait()

	for i, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			res, err := traced[i].res, traced[i].err
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct %v, %d of %d ops failed: %v", res.correct, res.failed, res.attempted, res.firstErr)
			}
			for _, m := range perLayer {
				if _, ok := res.metrics[m.Name]; !ok {
					t.Errorf("%s not reported", m.Name)
				}
			}
			if v := res.metrics["cluster.driver_self_share"]; v <= 0 || v >= 0.5 {
				t.Errorf("cluster.driver_self_share = %g", v)
			}
			if def.name == "failover_rw" && res.metrics["cluster.failovers"] < 1 {
				t.Errorf("no failover happened")
			}
			if def.name == "oltp_ro_remote" && res.metrics["plog.records_per_mtr"] != 0 {
				t.Errorf("the read-only workload wrote redo")
			}
		})
	}
	t.Run("end_to_end", func(t *testing.T) {
		if untraced.err != nil {
			t.Fatal(untraced.err)
		}
		res := untraced.res
		for _, m := range endToEnd {
			if v, ok := res.metrics[m.Name]; !ok || v <= 0 {
				t.Errorf("%s = %g", m.Name, v)
			}
		}
		if len(res.metrics) != len(endToEnd) {
			t.Errorf("%d metrics reported, want the %d end-to-end ones", len(res.metrics), len(endToEnd))
		}
	})
}
