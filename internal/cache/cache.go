// Package cache implements the local cache tier of a database node
// (§3.1.3): a bounded pool of page frames in node-local memory. The CPU
// only ever touches pages here; misses are filled from the remote memory
// pool (or storage) by the engine, and evicted dirty frames are written
// back to remote memory first.
//
// The cache provides mechanics only — frames, pins, local latches, LRU,
// invalidation bits, swap statistics. Policy (where misses are fetched
// from, what write-back means) lives in the engine so the same cache backs
// both PolarDB Serverless nodes and the baseline architectures.
package cache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"polardb/internal/rdma"
	"polardb/internal/types"
)

// ErrAllPinned is returned when a frame must be evicted but every resident
// frame is pinned.
var ErrAllPinned = errors.New("cache: all frames pinned, cannot evict")

// RemoteInfo carries the remote-memory addresses of a cached page, set by
// the engine at registration time.
type RemoteInfo struct {
	Registered bool
	Data       rdma.Addr
	PL         rdma.Addr
	PIB        rdma.Addr
}

// Frame is one resident page. The embedded RWMutex is the page's *local*
// latch (the paper's per-node latch, distinct from the global PL latch).
type Frame struct {
	ID   types.PageID
	Data []byte

	// Latch is the local page latch: shared for readers, exclusive for
	// modifications. Lock ordering follows B+tree crabbing rules.
	Latch sync.RWMutex

	// Remote holds the page's remote-memory registration, if any.
	Remote RemoteInfo

	// NewestLSN is the LSN of the last redo record modifying this frame.
	NewestLSN types.LSN
	// ShippedLSN is the highest LSN covering this page acknowledged by the
	// owning page chunk; the frame may only be dropped (and its remote
	// copy evicted) once ShippedLSN >= NewestLSN.
	ShippedLSN types.LSN

	pins  atomic.Int32
	dirty atomic.Bool

	// The local PIB bit is a pair of counts, not a flag: invals counts the
	// invalidations received, current is the value of invals the contents
	// were read under. A refresher that cleared a flag after its read would
	// erase an invalidation that landed in between; publishing the count it
	// read before the read cannot.
	invals  atomic.Uint64
	current atomic.Uint64

	lruElem *list.Element
	evictin bool // being evicted; not in map anymore
}

// Pin prevents eviction. Frames returned by Get/Insert are already pinned.
func (f *Frame) Pin() { f.pins.Add(1) }

// Unpin releases a pin.
func (f *Frame) Unpin() { f.pins.Add(-1) }

// Pins returns the current pin count.
func (f *Frame) Pins() int { return int(f.pins.Load()) }

// MarkDirty flags the frame as modified since last write-back.
func (f *Frame) MarkDirty() { f.dirty.Store(true) }

// ClearDirty flags the frame as clean (after write-back).
func (f *Frame) ClearDirty() { f.dirty.Store(false) }

// Dirty reports whether the frame holds unwritten modifications.
func (f *Frame) Dirty() bool { return f.dirty.Load() }

// Invalidate sets the local PIB bit: the cached copy is outdated.
func (f *Frame) Invalidate() { f.invals.Add(1) }

// Invalidations returns the number of invalidations received so far. A
// refresher reads it before it probes for the page's newest image and
// hands it to SetCurrent once the image is in the frame.
func (f *Frame) Invalidations() uint64 { return f.invals.Load() }

// SetCurrent records that the contents are at least as new as the k-th
// invalidation. The frame stays invalid if another one has arrived since.
func (f *Frame) SetCurrent(k uint64) { f.current.Store(k) }

// Invalid reports the local PIB bit: an invalidation arrived that the
// contents do not yet reflect.
func (f *Frame) Invalid() bool { return f.current.Load() != f.invals.Load() }

// EvictFn is called (outside cache locks) with a victim frame removed from
// the cache. It must write back / unregister as needed. The frame is
// unpinned and no longer reachable through the cache.
type EvictFn func(*Frame)

// Stats counts cache traffic. SwappedIn/SwappedOut reproduce the "pages
// swapped" series of Figure 11.
type Stats struct {
	Hits       uint64
	Misses     uint64
	SwappedOut uint64 // evictions
	SwappedIn  uint64 // inserts (fetch fills)
	Resident   int
	Capacity   int
}

// Cache is a fixed-capacity page frame pool with LRU replacement.
//
// Eviction interlock: from the moment a victim is detached until its
// evict callback finishes (write-back may block on redo shipping), the
// page is listed as "evicting". WaitEvicting lets fetch paths wait out
// that window instead of resurrecting the page from a stale source while
// its newest bytes are still in flight.
type Cache struct {
	mu       sync.Mutex
	capacity int
	frames   map[uint64]*Frame
	lru      *list.List // *Frame; front = oldest
	evict    EvictFn
	evicting map[uint64]chan struct{}

	hits, misses, in, out atomic.Uint64
}

// New creates a cache holding up to capacity pages. evict may be nil.
func New(capacity int, evict EvictFn) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		frames:   make(map[uint64]*Frame, capacity),
		lru:      list.New(),
		evict:    evict,
		evicting: make(map[uint64]chan struct{}),
	}
}

// Capacity returns the current frame capacity.
func (c *Cache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Get returns the pinned resident frame for id, or nil on miss.
func (c *Cache) Get(id types.PageID) *Frame {
	c.mu.Lock()
	f, ok := c.frames[id.Key()]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	f.Pin()
	c.lru.MoveToBack(f.lruElem)
	c.mu.Unlock()
	c.hits.Add(1)
	return f
}

// Probe reports whether id is resident and, if it is, whether the copy is
// valid. It is not an access: no pin, no LRU move, no hit or miss counted.
func (c *Cache) Probe(id types.PageID) (resident, valid bool) {
	c.mu.Lock()
	f, ok := c.frames[id.Key()]
	c.mu.Unlock()
	return ok, ok && !f.Invalid()
}

// Insert adds a freshly fetched frame (pinned once on return), evicting
// LRU unpinned frames as needed. If id is already resident (a racing fill)
// the existing frame is returned instead and the argument is discarded.
func (c *Cache) Insert(f *Frame) (*Frame, error) {
	c.mu.Lock()
	if existing, ok := c.frames[f.ID.Key()]; ok {
		existing.Pin()
		c.lru.MoveToBack(existing.lruElem)
		c.mu.Unlock()
		return existing, nil
	}
	var victims []*Frame
	for len(c.frames) >= c.capacity {
		v := c.pickVictimLocked()
		if v == nil {
			c.mu.Unlock()
			// Roll back any victims we already detached? They are gone from
			// the map; evict them anyway to avoid losing writes.
			for _, v := range victims {
				c.runEvict(v)
			}
			return nil, ErrAllPinned
		}
		victims = append(victims, v)
	}
	f.Pin()
	f.lruElem = c.lru.PushBack(f)
	c.frames[f.ID.Key()] = f
	c.mu.Unlock()
	c.in.Add(1)
	for _, v := range victims {
		c.runEvict(v)
	}
	return f, nil
}

// pickVictimLocked detaches the oldest unpinned frame from the cache and
// marks its page as evicting until runEvict completes.
func (c *Cache) pickVictimLocked() *Frame {
	for e := c.lru.Front(); e != nil; e = e.Next() {
		f := e.Value.(*Frame)
		if f.Pins() == 0 {
			c.lru.Remove(e)
			f.lruElem = nil
			f.evictin = true
			delete(c.frames, f.ID.Key())
			c.evicting[f.ID.Key()] = make(chan struct{})
			return f
		}
	}
	return nil
}

func (c *Cache) runEvict(f *Frame) {
	c.out.Add(1)
	if c.evict != nil {
		c.evict(f)
	}
	c.mu.Lock()
	if ch, ok := c.evicting[f.ID.Key()]; ok {
		close(ch)
		delete(c.evicting, f.ID.Key())
	}
	c.mu.Unlock()
}

// WaitEvicting blocks while the page is mid-eviction (detached but its
// write-back not yet complete). Fetch paths call it before filling a miss
// so they never reload a page whose newest bytes are still being evicted.
func (c *Cache) WaitEvicting(id types.PageID) {
	for {
		c.mu.Lock()
		ch, ok := c.evicting[id.Key()]
		c.mu.Unlock()
		if !ok {
			return
		}
		<-ch
	}
}

// Remove detaches a specific frame (e.g. a page dropped by slab failure or
// freed by a B+tree merge) without invoking the evict callback. Returns
// the frame if it was resident.
func (c *Cache) Remove(id types.PageID) *Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.frames[id.Key()]
	if !ok {
		return nil
	}
	if f.lruElem != nil {
		c.lru.Remove(f.lruElem)
		f.lruElem = nil
	}
	delete(c.frames, id.Key())
	return f
}

// Invalidate sets the local PIB bit on the resident copy, if any. It is
// the cache-invalidation callback target and deliberately lock-light.
func (c *Cache) Invalidate(id types.PageID) bool {
	c.mu.Lock()
	f, ok := c.frames[id.Key()]
	c.mu.Unlock()
	if !ok {
		return false
	}
	f.Invalidate()
	return true
}

// Resize changes the capacity, evicting LRU frames if shrinking.
func (c *Cache) Resize(capacity int) error {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	c.capacity = capacity
	var victims []*Frame
	for len(c.frames) > c.capacity {
		v := c.pickVictimLocked()
		if v == nil {
			break
		}
		victims = append(victims, v)
	}
	c.mu.Unlock()
	for _, v := range victims {
		c.runEvict(v)
	}
	return nil
}

// EvictAll flushes every unpinned frame through the evict callback
// (planned shutdown: write everything back to remote memory).
func (c *Cache) EvictAll() {
	for {
		c.mu.Lock()
		v := c.pickVictimLocked()
		c.mu.Unlock()
		if v == nil {
			return
		}
		c.runEvict(v)
	}
}

// ForEach calls fn with every resident frame (snapshot; frames may be
// evicted concurrently). Used by checkpointing and planned handover.
func (c *Cache) ForEach(fn func(*Frame)) {
	c.mu.Lock()
	snapshot := make([]*Frame, 0, len(c.frames))
	for _, f := range c.frames {
		snapshot = append(snapshot, f)
	}
	c.mu.Unlock()
	for _, f := range snapshot {
		fn(f)
	}
}

// Stats returns traffic counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	resident, capacity := len(c.frames), c.capacity
	c.mu.Unlock()
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		SwappedIn:  c.in.Load(),
		SwappedOut: c.out.Load(),
		Resident:   resident,
		Capacity:   capacity,
	}
}

// ResetStats zeroes the traffic counters.
func (c *Cache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.in.Store(0)
	c.out.Store(0)
}
