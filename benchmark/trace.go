package main

import (
	"encoding/json"
	"os"
	"time"
)

// The traced run records spans from the benchmark's own files, around the
// calls into the system: one span per op and, inside it, one per
// Session.Begin/Get/Scan/Exec/Commit (BKP prefetch on the join), plus the
// failover controller's kill / Failover / AddRO. Spans stay in memory,
// one slice per goroutine, and are written out when the run ends.

// spanKind names a span.
type spanKind uint8

const (
	spOp spanKind = iota
	spBegin
	spGet
	spScan
	spExec
	spCommit
	spPrefetch
	spKill
	spFailover
	spAddRO
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "begin", "get", "scan", "exec", "commit", "prefetch", "kill", "failover", "add_ro",
}

// span is one timed interval. Start and End are nanoseconds since the
// process's epoch; Parent indexes the causing span in the same slice
// (-1 for a root); Op is shared by the spans of one op of one client.
type span struct {
	Kind   spanKind
	Start  int64
	End    int64
	Parent int32
	Op     uint32
}

var epoch = time.Now()

// nanos is the trace clock: monotonic nanoseconds since the epoch.
func nanos() int64 { return int64(time.Since(epoch)) }

// spanStats is what the per-layer metrics need from one goroutine's spans.
type spanStats struct {
	byKind   [numSpanKinds][]float64 // durations, ns
	opNS     float64                 // total op span time
	selfNS   float64                 // op time not covered by child spans
	writeNS  float64                 // op time of ops that committed a transaction
	commitNS float64                 // commit span time inside those ops
}

// summarize computes each op's self time: its span's duration minus the
// part its child spans cover. Children of one op never overlap — a client
// issues its statements one after another — so their durations add up.
func summarize(spans []span) spanStats {
	var st spanStats
	covered := make([]float64, len(spans)) // by op span index
	commit := make([]float64, len(spans))
	wrote := make([]bool, len(spans))
	for _, s := range spans {
		d := float64(s.End - s.Start)
		st.byKind[s.Kind] = append(st.byKind[s.Kind], d)
		if s.Parent >= 0 {
			covered[s.Parent] += d
			if s.Kind == spCommit {
				commit[s.Parent] += d
				wrote[s.Parent] = true
			}
		}
	}
	for i, s := range spans {
		if s.Kind != spOp {
			continue
		}
		d := float64(s.End - s.Start)
		st.opNS += d
		st.selfNS += d - covered[i]
		if wrote[i] {
			st.writeNS += d
			st.commitNS += commit[i]
		}
	}
	return st
}

func (st *spanStats) merge(o spanStats) {
	for k := range st.byKind {
		st.byKind[k] = append(st.byKind[k], o.byKind[k]...)
	}
	st.opNS += o.opNS
	st.selfNS += o.selfNS
	st.writeNS += o.writeNS
	st.commitNS += o.commitNS
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Kinds    []string    `json:"kinds"`
	Columns  string      `json:"columns"`
	Threads  []traceLane `json:"threads"`
}

// traceLane is one goroutine's spans, each a row of traceFile.Columns.
type traceLane struct {
	Name  string     `json:"name"`
	Spans [][5]int64 `json:"spans"`
}

func lane(name string, spans []span) traceLane {
	rows := make([][5]int64, len(spans))
	for i, s := range spans {
		rows[i] = [5]int64{int64(s.Kind), s.Start, s.End, int64(s.Parent), int64(s.Op)}
	}
	return traceLane{Name: name, Spans: rows}
}

func writeTrace(path, workload string, seed int64, lanes []traceLane) error {
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Kinds: spanNames[:],
		Columns: "kind,start_ns,end_ns,parent,op", Threads: lanes})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
