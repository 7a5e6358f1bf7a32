package stat

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// NumBuckets is the fixed bucket count of every Histogram. Bucket 0
// holds observations below 1µs; bucket i holds [2^(i-1), 2^i) µs; the
// last bucket holds everything from ~2^(NumBuckets-2) µs (≈ 67s) up.
const NumBuckets = 28

// Histogram is a fixed-bucket latency histogram with exponential
// (power-of-two microsecond) bucket boundaries. The zero value is ready
// to use.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(us)) // 1µs -> 1, 2-3µs -> 2, ...
	if idx >= NumBuckets {
		idx = NumBuckets - 1
	}
	return idx
}

// BucketBound returns the exclusive upper bound of bucket i (the last
// bucket is unbounded and reports its inclusive lower bound instead).
func BucketBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return time.Duration(1<<(NumBuckets-2)) * time.Microsecond
	}
	return time.Duration(uint64(1)<<i) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
	h.buckets[bucketIndex(d)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average observation (0 if empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// snapshot copies the histogram counter-wise.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), SumNS: h.sumNS.Load()}
	var b [NumBuckets]uint64
	last := -1
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
		if b[i] != 0 {
			last = i
		}
	}
	s.Buckets = append([]uint64(nil), b[:last+1]...)
	return s
}

// HistSnapshot is a point-in-time copy of a histogram. Buckets holds the
// per-bucket counts with trailing zero buckets trimmed (so snapshots of
// mostly-empty histograms stay small in BENCH_*.json).
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	SumNS   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the snapshot's average observation (0 if empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Quantile returns the bucket upper bound at or above which the q-th
// fraction (0 < q <= 1) of observations fall, i.e. an upper estimate of
// the q-quantile given the fixed bucket resolution.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// Sub returns the delta s - prev, counter-wise. Buckets absent from one
// side count as zero.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: s.Count - prev.Count, SumNS: s.SumNS - prev.SumNS}
	last := -1
	var b [NumBuckets]uint64
	for i := 0; i < NumBuckets; i++ {
		var cur, old uint64
		if i < len(s.Buckets) {
			cur = s.Buckets[i]
		}
		if i < len(prev.Buckets) {
			old = prev.Buckets[i]
		}
		b[i] = cur - old
		if b[i] != 0 {
			last = i
		}
	}
	d.Buckets = append([]uint64(nil), b[:last+1]...)
	return d
}
