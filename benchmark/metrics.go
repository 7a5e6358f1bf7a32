package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"polardb/internal/stat"
)

// metricDef names one metric of the benchmark. The two tables below are
// the single list of names and units the program prints; BENCHMARK.json
// repeats them with bounds (a test pins the two together).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the database sees, measured with
// tracing off. Every workload reports every one of them for its primary
// op class (see workload.primary).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of the traced run, prefix =
// module name. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// cluster: driver-side spans around Session calls, op classes, failover.
	{"cluster.begin_us", "us"}, {"cluster.get_us", "us"}, {"cluster.scan_us", "us"},
	{"cluster.exec_us", "us"}, {"cluster.commit_us", "us"},
	{"cluster.commit_share", "ratio"}, {"cluster.driver_self_share", "ratio"},
	{"cluster.trace_overhead_share", "ratio"},
	{"cluster.write_txn_per_s", "1/s"}, {"cluster.write_p50_ms", "ms"}, {"cluster.write_tail_ms", "ms"},
	{"cluster.read_txn_per_s", "1/s"}, {"cluster.read_p50_ms", "ms"}, {"cluster.read_tail_ms", "ms"},
	{"cluster.failed_share", "ratio"}, {"cluster.aborted_attempt_share", "ratio"},
	{"cluster.failovers", "count"}, {"cluster.failover_p50_ms", "ms"}, {"cluster.promote_ms", "ms"},
	{"cluster.add_ro_ms", "ms"}, {"cluster.first_commit_gap_ms", "ms"},
	{"cluster.deployments_redone", "count"},
	// engine
	{"engine.local_hit_share", "ratio"}, {"engine.remote_reads_per_op", "count"},
	{"engine.storage_reads_per_op", "count"}, {"engine.mtrs_per_write_txn", "count"},
	{"engine.redo_records_per_flush", "count"}, {"engine.abort_share", "ratio"},
	{"engine.flush_served_per_s", "1/s"}, {"engine.smo_latches_per_kop", "count"},
	{"engine.fetch_hit_us", "us"}, {"engine.fetch_remote_us", "us"},
	{"engine.begin_ro_us", "us"}, {"engine.prefetch_batch_us", "us"},
	// btree
	{"btree.get_us", "us"}, {"btree.scan100_us", "us"}, {"btree.pages_per_get", "count"},
	// cache
	{"cache.get_ns", "ns"}, {"cache.insert_evict_ns", "ns"}, {"cache.swapped_out_per_op", "count"},
	// txn
	{"txn.cts_reads_per_op", "count"}, {"txn.cts_lookups_per_op", "count"},
	{"txn.next_ts_per_write_txn", "count"},
	// plog
	{"plog.records_per_mtr", "count"}, {"plog.records_per_write_txn", "count"}, {"plog.append_us", "us"},
	// rmem
	{"rmem.rpcs_per_remote_read", "count"}, {"rmem.invalidations_per_mtr", "count"},
	{"rmem.inv_pages_per_batch", "count"}, {"rmem.inv_fanout_per_batch", "count"},
	{"rmem.home_hit_share", "ratio"}, {"rmem.evictions_per_op", "count"},
	{"rmem.pib_checks_per_op", "count"}, {"rmem.pl_fast_share", "ratio"},
	{"rmem.pl_sticky_share", "ratio"}, {"rmem.pl_revokes_per_kop", "count"},
	{"rmem.register_hit_us", "us"}, {"rmem.read_page_us", "us"}, {"rmem.unregister_us", "us"},
	{"rmem.pib_check_us", "us"}, {"rmem.invalidate_batch_us", "us"}, {"rmem.pl_lock_s_us", "us"},
	// rdma
	{"rdma.rpcs_per_op", "count"}, {"rdma.reads_per_op", "count"}, {"rdma.writes_per_op", "count"},
	{"rdma.atomics_per_op", "count"}, {"rdma.bytes_per_op", "B"},
	{"rdma.rpc_mean_us", "us"}, {"rdma.rpc_p99_bucket_us", "us"},
	{"rdma.read_mean_us", "us"}, {"rdma.read_p99_bucket_us", "us"}, {"rdma.atomic_mean_us", "us"},
	{"rdma.read_4k_idle_us", "us"}, {"rdma.rpc_echo_idle_us", "us"}, {"rdma.atomic_idle_us", "us"},
	{"rdma.read_model_ratio", "ratio"}, {"rdma.rpc_model_ratio", "ratio"},
	// polarfs
	{"polarfs.get_pages_per_op", "count"}, {"polarfs.append_redo_per_write_txn", "count"},
	{"polarfs.ship_records_per_write_txn", "count"}, {"polarfs.chunk_add_batches_per_s", "1/s"},
	{"polarfs.read_redo_per_failover", "count"},
	{"polarfs.get_page_mean_us", "us"}, {"polarfs.get_page_p99_bucket_us", "us"},
	{"polarfs.append_redo_mean_us", "us"}, {"polarfs.append_redo_p99_bucket_us", "us"},
	{"polarfs.get_page_probe_us", "us"},
	// parallelraft
	{"parallelraft.proposals_per_write_txn", "count"}, {"parallelraft.appends_per_proposal", "count"},
	{"parallelraft.propose_mean_us", "us"}, {"parallelraft.propose_p99_bucket_us", "us"},
}

// percentile returns the nearest-rank q-quantile of sorted (ascending).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts xs in place and returns its median (the mean of the two
// middle values when their number is even, as Python's statistics.median).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// tailLadder are the percentiles a tail may be reported at, highest
// first, each with the sample count that leaves ten samples beyond it.
var tailLadder = []struct {
	q       float64
	samples int
}{{0.9999, 100000}, {0.999, 10000}, {0.99, 1000}, {0.95, 200}, {0.90, 100}, {0.75, 40}}

// highestPercentile returns the highest ladder percentile that still has
// at least ten of n samples beyond it (0 when even p75 has not).
func highestPercentile(n int) float64 {
	for _, t := range tailLadder {
		if n >= t.samples {
			return t.q
		}
	}
	return 0
}

// ratio is a/b, and 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns float64) float64 { return ns / 1e3 }

// layerCounts turns the window's registry delta (summed over all nodes)
// into the scale-free per-layer counts: per op, per write transaction,
// per second, or as a share. ops counts every acknowledged op, writes
// the acknowledged write transactions, failovers the promotions.
func layerCounts(d stat.Snapshot, ops, writes, failovers, seconds float64) map[string]float64 {
	c := func(name string) float64 { return float64(d.Counter(name)) }
	h := func(name string) stat.HistSnapshot { return d.Histograms[name] }
	meanUS := func(name string) float64 { return us(ratio(float64(h(name).SumNS), float64(h(name).Count))) }
	p99US := func(name string) float64 { return us(float64(h(name).Quantile(0.99))) }

	pages := c("engine.page.local_hit") + c("engine.page.remote_read") + c("engine.page.storage_read")
	pl := c("rmem.pl.fast") + c("rmem.pl.slow")
	verbs := c("rdma.rpc.bytes") + c("rdma.read.bytes") + c("rdma.write.bytes") + c("rdma.atomic.bytes")
	return map[string]float64{
		"engine.local_hit_share":        ratio(c("engine.page.local_hit"), pages),
		"engine.remote_reads_per_op":    ratio(c("engine.page.remote_read"), ops),
		"engine.storage_reads_per_op":   ratio(c("engine.page.storage_read"), ops),
		"engine.mtrs_per_write_txn":     ratio(c("engine.mtr.commit"), writes),
		"engine.redo_records_per_flush": ratio(c("engine.redo.flush.records"), c("engine.redo.flush.batches")),
		"engine.abort_share":            ratio(c("engine.txn.abort"), c("engine.txn.abort")+c("engine.txn.commit")),
		"engine.flush_served_per_s":     ratio(c("engine.flush.served"), seconds),
		"engine.smo_latches_per_kop":    1000 * ratio(c("engine.smo.latch_x")+c("engine.smo.latch_s"), ops),

		"txn.cts_reads_per_op":      ratio(c("txn.cts.read_ts.ops"), ops),
		"txn.cts_lookups_per_op":    ratio(c("txn.cts.lookup.ops")+c("txn.cts.read_lsn.ops"), ops),
		"txn.next_ts_per_write_txn": ratio(c("txn.cts.next_ts.ops"), writes),

		"plog.records_per_mtr":       ratio(c("plog.append.records"), c("plog.append.mtrs")),
		"plog.records_per_write_txn": ratio(c("plog.append.records"), writes),

		"rmem.rpcs_per_remote_read":  ratio(c("rmem.register.ops")+c("rmem.unregister.ops"), c("rmem.page_read.ops")),
		"rmem.invalidations_per_mtr": ratio(c("rmem.invalidate.sent"), c("engine.mtr.commit")),
		"rmem.inv_pages_per_batch":   ratio(c("rmem.invalidate.sent_pages"), c("rmem.invalidate.sent")),
		"rmem.inv_fanout_per_batch":  ratio(c("rmem.home.inv_fanout"), c("rmem.invalidate.sent")),
		"rmem.home_hit_share":        ratio(c("rmem.home.hits"), c("rmem.home.registers")),
		"rmem.evictions_per_op":      ratio(c("rmem.home.evictions"), ops),
		"rmem.pib_checks_per_op":     ratio(c("rmem.pib_check.ops"), ops),
		"rmem.pl_fast_share":         ratio(c("rmem.pl.fast"), pl),
		"rmem.pl_sticky_share":       ratio(c("rmem.pl.sticky"), pl+c("rmem.pl.sticky")),
		"rmem.pl_revokes_per_kop":    1000 * ratio(c("rmem.pl.revoke"), ops),

		"rdma.rpcs_per_op":        ratio(c("rdma.rpc.ops"), ops),
		"rdma.reads_per_op":       ratio(c("rdma.read.ops"), ops),
		"rdma.writes_per_op":      ratio(c("rdma.write.ops"), ops),
		"rdma.atomics_per_op":     ratio(c("rdma.atomic.ops"), ops),
		"rdma.bytes_per_op":       ratio(verbs, ops),
		"rdma.rpc_mean_us":        meanUS("rdma.rpc.us"),
		"rdma.rpc_p99_bucket_us":  p99US("rdma.rpc.us"),
		"rdma.read_mean_us":       meanUS("rdma.read.us"),
		"rdma.read_p99_bucket_us": p99US("rdma.read.us"),
		"rdma.atomic_mean_us":     meanUS("rdma.atomic.us"),

		"polarfs.get_pages_per_op":             ratio(c("pfs.get_page.ops"), ops),
		"polarfs.append_redo_per_write_txn":    ratio(c("pfs.append_redo.ops"), writes),
		"polarfs.ship_records_per_write_txn":   ratio(c("pfs.ship.records"), writes),
		"polarfs.chunk_add_batches_per_s":      ratio(c("pfs.chunk.add_batches"), seconds),
		"polarfs.read_redo_per_failover":       ratio(c("pfs.read_redo.ops"), failovers),
		"polarfs.get_page_mean_us":             meanUS("pfs.get_page.us"),
		"polarfs.get_page_p99_bucket_us":       p99US("pfs.get_page.us"),
		"polarfs.append_redo_mean_us":          meanUS("pfs.append_redo.us"),
		"polarfs.append_redo_p99_bucket_us":    p99US("pfs.append_redo.us"),
		"parallelraft.proposals_per_write_txn": ratio(c("raft.propose.ops"), writes),
		"parallelraft.appends_per_proposal":    ratio(c("raft.append.served"), c("raft.propose.ops")),
		"parallelraft.propose_mean_us":         meanUS("raft.propose.us"),
		"parallelraft.propose_p99_bucket_us":   p99US("raft.propose.us"),
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
