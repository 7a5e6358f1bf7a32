package rdma

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// Addr names a location in a registered remote memory region.
type Addr struct {
	Node   NodeID
	Region uint32
	Off    uint64
}

func (a Addr) String() string {
	return fmt.Sprintf("%s/r%d+%d", a.Node, a.Region, a.Off)
}

// Region is a piece of node memory registered with the NIC, remotely
// accessible through one-sided verbs. The owning node may also access it
// locally (without fabric latency) through the same methods on the Region
// value itself.
type Region struct {
	id  uint32
	mu  sync.RWMutex
	buf []byte
}

// ID returns the region's identifier within its endpoint.
func (r *Region) ID() uint32 { return r.id }

// Len returns the region size in bytes.
func (r *Region) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.buf)
}

// ReadLocal copies region bytes at off into dst without fabric latency.
// It is the owning node's view of its own memory.
func (r *Region) ReadLocal(off uint64, dst []byte) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(off)+len(dst) > len(r.buf) || int(off) < 0 {
		return ErrOutOfBounds
	}
	copy(dst, r.buf[off:])
	return nil
}

// WriteLocal copies src into the region at off without fabric latency.
func (r *Region) WriteLocal(off uint64, src []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(off)+len(src) > len(r.buf) {
		return ErrOutOfBounds
	}
	copy(r.buf[off:], src)
	return nil
}

// Load64Local atomically reads an 8-byte word locally.
func (r *Region) Load64Local(off uint64) (uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if off%8 != 0 {
		return 0, ErrMisaligned
	}
	if int(off)+8 > len(r.buf) {
		return 0, ErrOutOfBounds
	}
	return binary.LittleEndian.Uint64(r.buf[off:]), nil
}

// Store64Local atomically writes an 8-byte word locally.
func (r *Region) Store64Local(off uint64, v uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off%8 != 0 {
		return ErrMisaligned
	}
	if int(off)+8 > len(r.buf) {
		return ErrOutOfBounds
	}
	binary.LittleEndian.PutUint64(r.buf[off:], v)
	return nil
}

// FetchAdd64Local atomically adds delta to an 8-byte word locally and
// returns the value before the addition.
func (r *Region) FetchAdd64Local(off uint64, delta uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off%8 != 0 {
		return 0, ErrMisaligned
	}
	if int(off)+8 > len(r.buf) {
		return 0, ErrOutOfBounds
	}
	prev := binary.LittleEndian.Uint64(r.buf[off:])
	binary.LittleEndian.PutUint64(r.buf[off:], prev+delta)
	return prev, nil
}

// CAS64Local performs a local compare-and-swap on an 8-byte word and
// returns the previous value and whether the swap happened.
func (r *Region) CAS64Local(off uint64, old, new uint64) (uint64, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.casLocked(off, old, new)
}

func (r *Region) casLocked(off uint64, old, new uint64) (uint64, bool, error) {
	if off%8 != 0 {
		return 0, false, ErrMisaligned
	}
	if int(off)+8 > len(r.buf) {
		return 0, false, ErrOutOfBounds
	}
	cur := binary.LittleEndian.Uint64(r.buf[off:])
	if cur != old {
		return cur, false, nil
	}
	binary.LittleEndian.PutUint64(r.buf[off:], new)
	return cur, true, nil
}

// The Must*Local variants panic instead of returning an error. Local
// region access fails only on out-of-bounds or misaligned offsets —
// addressing bugs in the caller, not simulated infrastructure faults —
// so callers with offsets they computed against the region's own layout
// use these and keep fault-error handling (errdrop) meaningful.

// MustReadLocal is ReadLocal for caller-computed offsets.
func (r *Region) MustReadLocal(off uint64, dst []byte) {
	if err := r.ReadLocal(off, dst); err != nil {
		panic(fmt.Sprintf("rdma: local read r%d+%d: %v", r.id, off, err))
	}
}

// MustWriteLocal is WriteLocal for caller-computed offsets.
func (r *Region) MustWriteLocal(off uint64, src []byte) {
	if err := r.WriteLocal(off, src); err != nil {
		panic(fmt.Sprintf("rdma: local write r%d+%d: %v", r.id, off, err))
	}
}

// MustLoad64Local is Load64Local for caller-computed offsets.
func (r *Region) MustLoad64Local(off uint64) uint64 {
	v, err := r.Load64Local(off)
	if err != nil {
		panic(fmt.Sprintf("rdma: local load r%d+%d: %v", r.id, off, err))
	}
	return v
}

// MustStore64Local is Store64Local for caller-computed offsets.
func (r *Region) MustStore64Local(off uint64, v uint64) {
	if err := r.Store64Local(off, v); err != nil {
		panic(fmt.Sprintf("rdma: local store r%d+%d: %v", r.id, off, err))
	}
}

// MustCAS64Local is CAS64Local for caller-computed offsets.
func (r *Region) MustCAS64Local(off uint64, old, new uint64) (uint64, bool) {
	cur, ok, err := r.CAS64Local(off, old, new)
	if err != nil {
		panic(fmt.Sprintf("rdma: local cas r%d+%d: %v", r.id, off, err))
	}
	return cur, ok
}

// UpdateLocal is an atomic multi-word read-modify-write of n bytes of the
// region starting at off: it copies them out, runs fn on the copy and, if
// fn returns nil, copies the result back, all under one hold of the
// region's write lock. No remote verb or local accessor can interleave, so
// a sweep (recovery force-releasing a crashed node's latches) or a
// bracketed publish is one atomic step without a lock round-trip per
// word. fn's slice is a private copy: no Region method returns or lends a
// slice of the registered buffer, so every cross-node byte still moves
// through a verb.
func (r *Region) UpdateLocal(off uint64, n int, fn func(b []byte) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 0 || int(off) < 0 || int(off)+n > len(r.buf) {
		return ErrOutOfBounds
	}
	b := append([]byte(nil), r.buf[off:int(off)+n]...)
	if err := fn(b); err != nil {
		return err
	}
	copy(r.buf[off:], b)
	return nil
}

// RegisterRegion registers size bytes of node memory with the NIC and
// returns the region handle. The contents start zeroed.
func (e *Endpoint) RegisterRegion(size int) *Region {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextReg++
	r := &Region{id: e.nextReg, buf: make([]byte, size)}
	e.regions[r.id] = r
	return r
}

// DeregisterRegion removes a region; remote access to it then fails.
func (e *Endpoint) DeregisterRegion(id uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.regions, id)
}

// Region returns a registered region by id, or nil.
func (e *Endpoint) Region(id uint32) *Region {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.regions[id]
}

// remoteRegion resolves an Addr to a region on a live node. A killed
// endpoint cannot initiate traffic either: its NIC is down in both
// directions.
func (e *Endpoint) remoteRegion(a Addr) (*Region, error) {
	if e.isDown() {
		return nil, fmt.Errorf("%w: %s (local endpoint down)", ErrUnreachable, e.id)
	}
	target, err := e.fabric.lookup(a.Node)
	if err != nil {
		return nil, err
	}
	target.mu.RLock()
	r, ok := target.regions[a.Region]
	target.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchRegion, a)
	}
	return r, nil
}

// Read performs a one-sided RDMA READ of len(dst) bytes from the remote
// address into dst. The remote CPU is not involved.
func (e *Endpoint) Read(a Addr, dst []byte) error {
	r, err := e.remoteRegion(a)
	if err != nil {
		return err
	}
	start := time.Now()
	e.fabric.delay(e.fabric.cfg.OneSidedRead, len(dst))
	if err := r.ReadLocal(a.Off, dst); err != nil {
		return err
	}
	e.record(opRead, len(dst), start)
	return nil
}

// Write performs a one-sided RDMA WRITE of src to the remote address.
func (e *Endpoint) Write(a Addr, src []byte) error {
	r, err := e.remoteRegion(a)
	if err != nil {
		return err
	}
	start := time.Now()
	e.fabric.delay(e.fabric.cfg.OneSidedWrite, len(src))
	if err := r.WriteLocal(a.Off, src); err != nil {
		return err
	}
	e.record(opWrite, len(src), start)
	return nil
}

// CAS64 performs a one-sided RDMA compare-and-swap on an 8-byte word at the
// remote address. It returns the previous value and whether the swap
// succeeded.
func (e *Endpoint) CAS64(a Addr, old, new uint64) (uint64, bool, error) {
	r, err := e.remoteRegion(a)
	if err != nil {
		return 0, false, err
	}
	start := time.Now()
	e.fabric.delay(e.fabric.cfg.Atomic, 8)
	prev, ok, err := r.CAS64Local(a.Off, old, new)
	if err != nil {
		return 0, false, err
	}
	e.record(opAtomic, 8, start)
	return prev, ok, nil
}

// FetchAdd64 performs a one-sided RDMA fetch-and-add on an 8-byte word and
// returns the value before the addition.
func (e *Endpoint) FetchAdd64(a Addr, delta uint64) (uint64, error) {
	r, err := e.remoteRegion(a)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	e.fabric.delay(e.fabric.cfg.Atomic, 8)
	prev, err := r.FetchAdd64Local(a.Off, delta)
	if err != nil {
		return 0, err
	}
	e.record(opAtomic, 8, start)
	return prev, nil
}

// Load64 performs a one-sided atomic read of an 8-byte word.
func (e *Endpoint) Load64(a Addr) (uint64, error) {
	r, err := e.remoteRegion(a)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	e.fabric.delay(e.fabric.cfg.OneSidedRead, 8)
	v, err := r.Load64Local(a.Off)
	if err != nil {
		return 0, err
	}
	e.record(opRead, 8, start)
	return v, nil
}
