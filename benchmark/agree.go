package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// -agree compares two sets of runs of the benchmark, metric by metric,
// against the bounds BENCHMARK.json fixes: the acceptance check of the
// change that defined the benchmark (two sets from one commit must agree)
// and the regression check of every later change (A = parent, B = change).

// contract is the part of BENCHMARK.json the comparison needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // nil for per-layer metrics: reported, never judged
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readRecords groups a results.jsonl file's values by workload and metric
// (the two passes report disjoint metric names).
func readRecords(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range r.Metrics {
			k := r.Workload + "\x00" + name
			vals[k] = append(vals[k], m.Value)
		}
	}
	return vals, sc.Err()
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), which
// is what the driver of this repository uses for spreads.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median (xs is
// sorted in place).
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict judges medians a (reference) and b against bound: unresolved
// when either side's spread exceeds the bound, so that noise is never
// reported as "unchanged"; regressed when b is worse than a by more than
// the bound; ok otherwise.
func verdict(a, b, spreadA, spreadB, bound float64, better string) string {
	worse := ratio(b-a, a)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

func agreeFiles(pathA, pathB, contractPath string, stdout, stderr io.Writer) int {
	c, err := readContract(contractPath)
	if err == nil && len(c.EndToEnd) == 0 {
		err = fmt.Errorf("%s lists no end_to_end metrics", contractPath)
	}
	var a, b map[string][]float64
	if err == nil {
		a, err = readRecords(pathA)
	}
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-16s %-38s %5s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound", "verdict")
	regressed := 0
	for _, w := range c.Workloads {
		for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
			va, vb := a[w.Name+"\x00"+m.Name], b[w.Name+"\x00"+m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			bound, v := "-", "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
				v = verdict(ma, mb, sa, sb, *m.Bound, m.Better)
				if v == "regressed" {
					regressed++
				}
			}
			fmt.Fprintf(stdout, "%-16s %-38s %2d/%-2d %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %6s  %s\n",
				w.Name, m.Name, len(va), len(vb), ma, 100*sa, mb, 100*sb, 100*ratio(mb-ma, ma), bound, v)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d metric(s) regressed\n", regressed)
		return 1
	}
	return 0
}
