package rdma

import (
	"time"

	"polardb/internal/stat"
)

type opClass int

const (
	opRead opClass = iota
	opWrite
	opAtomic
	opRPC
	numOpClasses
)

// verbNames are the per-verb metric name stems under which each
// endpoint records its traffic (see DESIGN.md "Observability").
var verbNames = [numOpClasses]string{
	opRead:   "rdma.read",
	opWrite:  "rdma.write",
	opAtomic: "rdma.atomic",
	opRPC:    "rdma.rpc",
}

// verbMetrics are one endpoint's per-verb issue counters: ops, bytes
// moved, and end-to-end verb latency (injected fabric delay plus data
// copy). Handles are resolved once at attach time.
type verbMetrics struct {
	ops   [numOpClasses]*stat.Counter
	bytes [numOpClasses]*stat.Counter
	lat   [numOpClasses]*stat.Histogram
}

func newVerbMetrics(r *stat.Registry) *verbMetrics {
	m := &verbMetrics{}
	for c := opClass(0); c < numOpClasses; c++ {
		m.ops[c] = r.Counter(verbNames[c] + ".ops")
		m.bytes[c] = r.Counter(verbNames[c] + ".bytes")
		m.lat[c] = r.Histogram(verbNames[c] + ".us")
	}
	return m
}

// record counts one issued verb on the issuing endpoint's registry.
func (e *Endpoint) record(c opClass, n int, start time.Time) {
	e.verbs.ops[c].Inc()
	e.verbs.bytes[c].Add(uint64(n))
	e.verbs.lat[c].Observe(time.Since(start))
}
