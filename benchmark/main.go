// Command benchmark is the repo benchmark: four closed-loop workloads
// against cluster.Launch deployments with rdma.DefaultConfig latency,
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. README.md in this directory is the glossary; BENCHMARK.json
// at the repo root is the contract.
//
//	go run ./benchmark -workload all -trace 1        every workload, untraced then traced
//	go run ./benchmark -workload oltp_rw_hot         one untraced run, end-to-end metrics
//	go run ./benchmark -workload oltp_rw_hot -trace 1  one traced run, per-layer metrics
//	go run ./benchmark -agree A.jsonl B.jsonl        compare two sets of runs
//
// The last line of a single-workload run's standard output is one JSON
// object {"correct","attempted","failed","metrics"}; the exit code is
// non-zero when an output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// warmup is the discarded lead-in on each deployment: long enough for the
// local caches to reach their steady contents at the sizes in
// workloads.go (the load itself leaves the remote pool populated).
const warmup = time.Second

// reps is the number of deployments a run measures. A run has to set up
// several times anyway (setup_s is the median), so each deployment also
// serves a third of the measured window: medians over three fresh
// deployments are steadier than one long window, during which the
// process's heap (and with it the collector's share of the two cores)
// keeps growing.
const reps = 3

// spareReps is how many deployments a run may give up and set up again
// when the deployment itself breaks — a launch, promotion, AddRO or probe
// call returns an error — as opposed to returning a wrong output, which
// fails the run at once. Each is reported on standard error and counted
// in cluster.deployments_redone (README, "When a deployment breaks").
const spareReps = 2

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to <out>/results.jsonl, the input of -agree.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	resultLine
	Samples map[string]int `json:"samples"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload `name`, or all")
	seed := fs.Int64("seed", 1, "workload seed; client i draws from seed+i")
	seconds := fs.Int("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics (with -workload all: after the untraced run)")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "`dir`ectory for results.jsonl and trace-<workload>.json")
	agree := fs.Bool("agree", false, "compare two results.jsonl files given as arguments against BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -agree A.jsonl B.jsonl")
			return 2
		}
		return agreeFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name|all] [-seed n] [-seconds n] [-trace 0|1] [-out dir]")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *out, stdout, stderr)
	}
	def, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	rc := runConfig{def: def, seed: *seed, warmup: warmup, window: time.Duration(*seconds) * time.Second,
		reps: reps, latency: true, trace: *trace == 1, outDir: *out, log: stderr}
	res, err := runWorkload(rc)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	rec := report(stdout, rc, res)
	if err := appendRecord(filepath.Join(*out, "results.jsonl"), rec); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, _ := json.Marshal(rec.resultLine)
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		fmt.Fprintln(stderr, "benchmark: incorrect output:", res.firstErr)
		return 1
	}
	return 0
}

// runAll re-executes the binary once per workload and pass, so that each
// starts from a fresh heap with none of the previous cluster's goroutines
// (peak_rss_mb is per workload).
func runAll(seed int64, seconds, trace int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, def := range workloads {
		for pass := 0; pass <= trace; pass++ {
			cmd := exec.Command(self, "-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(pass), "-out", out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (trace %d): %v\n", def.name, pass, err)
				code = 1
			}
		}
	}
	return code
}

// report prints every metric of the run by name with its unit and sample
// count, and returns the run's record.
func report(w io.Writer, rc runConfig, res *runResult) record {
	defs, trace := endToEnd, 0
	if rc.trace {
		defs, trace = perLayer, 1
	}
	rec := record{Workload: rc.def.name, Seed: rc.seed, Seconds: int(rc.window.Seconds()), Trace: trace,
		resultLine: resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
			Metrics: make(map[string]metricValue, len(defs))},
		Samples: res.samples}
	fmt.Fprintf(w, "workload %s  seed %d  window %v  trace %d  clients %d (closed loop)  tail p%g\n",
		rc.def.name, rc.seed, rc.window, trace, clients, 100*rc.def.tailQ)
	fmt.Fprintf(w, "ops attempted %d, failed %d, output checks %s\n", res.attempted, res.failed,
		map[bool]string{true: "passed", false: "FAILED"}[res.correct])
	fmt.Fprintf(w, "%-40s %14s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		v := res.metrics[d.Name]
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		samples := ""
		if n, ok := res.samples[d.Name]; ok {
			samples = strconv.Itoa(n)
		}
		fmt.Fprintf(w, "%-40s %14.4f  %-6s %s\n", d.Name, v, d.Unit, samples)
	}
	if n := res.samples["tail_ms"]; !rc.trace {
		fmt.Fprintf(w, "tail_ms is p%g with %d samples beyond it; the highest percentile with ten beyond it is p%g\n",
			100*rc.def.tailQ, n-int(math.Ceil(rc.def.tailQ*float64(n))), 100*highestPercentile(n))
	}
	return rec
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
