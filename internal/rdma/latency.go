package rdma

import (
	"runtime"
	"time"
)

// Config holds the latency/bandwidth model of the simulated fabric.
//
// Defaults approximate the cost hierarchy measured on RoCEv2 hardware:
// a one-sided remote-memory verb costs a few microseconds, an RPC costs
// roughly double (two DMA crossings plus remote CPU), and a storage access
// costs two orders of magnitude more. Absolute values are irrelevant for
// the reproduction; the ordering is what the paper's design exploits.
type Config struct {
	// TimeScale multiplies every injected delay. 0 disables delays entirely
	// (unit tests); 1 is the default benchmark profile.
	TimeScale float64

	// OneSidedRead is the base latency of a one-sided RDMA READ.
	OneSidedRead time.Duration
	// OneSidedWrite is the base latency of a one-sided RDMA WRITE.
	OneSidedWrite time.Duration
	// Atomic is the latency of RDMA CAS / FETCH_ADD.
	Atomic time.Duration
	// RPC is the base latency of a two-sided round trip.
	RPC time.Duration
	// PerKB is added per KiB transferred, modelling bandwidth.
	PerKB time.Duration

	// scaleSet records whether TimeScale was explicitly provided.
	scaleSet bool
}

// DefaultConfig returns the benchmark latency profile (TimeScale 1).
//
// Fabric verbs use real RoCEv2-scale numbers (~2µs one-sided, ~5µs RPC),
// injected as yielding busy-waits because they sit far below the OS sleep
// granularity (~1ms on typical hosts — sleeping would flatten the
// hierarchy). Storage-class latencies (a page chunk's GetPage media cost,
// 2ms) are true sleeps, so storage waits overlap across
// goroutines even on small hosts. The resulting hierarchy — local memory
// ≪ remote memory (µs) ≪ storage (ms) — is what the paper's design
// exploits.
func DefaultConfig() Config {
	return Config{
		TimeScale:     1,
		OneSidedRead:  2 * time.Microsecond,
		OneSidedWrite: 2 * time.Microsecond,
		Atomic:        1 * time.Microsecond,
		RPC:           5 * time.Microsecond,
		PerKB:         300 * time.Nanosecond,
		scaleSet:      true,
	}
}

// TestConfig returns a profile with all delays disabled, for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.TimeScale = 0
	return c
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.OneSidedRead == 0 {
		c.OneSidedRead = d.OneSidedRead
	}
	if c.OneSidedWrite == 0 {
		c.OneSidedWrite = d.OneSidedWrite
	}
	if c.Atomic == 0 {
		c.Atomic = d.Atomic
	}
	if c.RPC == 0 {
		c.RPC = d.RPC
	}
	if c.PerKB == 0 {
		c.PerKB = d.PerKB
	}
	if !c.scaleSet && c.TimeScale == 0 {
		// A zero-valued Config (not built by TestConfig) means "defaults".
		c.TimeScale = 1
	}
	c.scaleSet = true
}

// Delay injects an extra simulated latency (e.g. a storage device access)
// scaled by the fabric's TimeScale. Components above the raw verbs use it
// to model costs the network model does not cover.
func (f *Fabric) Delay(base time.Duration, bytes int) { f.delay(base, bytes) }

// delay injects a simulated network delay of base + size-proportional cost.
func (f *Fabric) delay(base time.Duration, bytes int) {
	if f.cfg.TimeScale == 0 {
		return
	}
	d := base + f.cfg.PerKB*time.Duration((bytes+1023)/1024)
	d = time.Duration(float64(d) * f.cfg.TimeScale)
	if d <= 0 {
		return
	}
	spinOrSleep(d)
}

// spinOrSleep waits for d. Sub-millisecond waits busy-spin because the OS timer
// granularity would otherwise round every microsecond-scale RDMA verb up
// to ~100µs and destroy the latency hierarchy the simulation depends on.
// The spin yields to the scheduler each iteration so that, on small core
// counts, latency injection cannot starve the simulation's background
// goroutines (raft heartbeats, shippers, materializers).
func spinOrSleep(d time.Duration) {
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
