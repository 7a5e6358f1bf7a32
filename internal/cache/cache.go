// Package cache implements the local cache tier of a database node
// (§3.1.3): a bounded pool of page frames in node-local memory. The CPU
// only ever touches pages here; misses are filled from the remote memory
// pool (or storage) by the engine, and evicted dirty frames are written
// back to remote memory first.
//
// The cache provides mechanics only — frames, pins, local latches, LRU,
// invalidation bits, swap statistics — and owns a page's transit states:
// one map holds every frame from the moment its fill starts (filling)
// until its evict callback returns (evicting), so a page has one frame at
// a time and whoever asks for it meanwhile waits here. Policy (where
// misses are fetched from, what write-back means) lives in the engine so
// the same cache backs both PolarDB Serverless nodes and the baseline
// architectures. A page's remote-memory addresses are not kept here: the
// node's registration table in librmem is their only copy, and the engine
// looks them up when it uses them.
package cache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"polardb/internal/types"
)

// ErrAllPinned is returned when a frame must be evicted but every resident
// frame is pinned.
var ErrAllPinned = errors.New("cache: all frames pinned, cannot evict")

// RemoteInfo is a frame's part in the page's remote-memory registration.
type RemoteInfo struct {
	// Registered: the frame's fill took a registration, which its eviction
	// gives back. The pool may have purged it since.
	Registered bool
}

// state is where a frame is in its life in the cache's map.
type state uint8

const (
	resident state = iota // published: in the LRU, counted against capacity
	filling               // being read in; Get waits, nothing evicts it
	evicting              // detached; its evict callback is running
)

// Frame is one resident page. The embedded RWMutex is the page's *local*
// latch (the paper's per-node latch, distinct from the global PL latch).
type Frame struct {
	ID   types.PageID
	Data []byte

	// Latch is the local page latch: shared for readers, exclusive for
	// modifications. Lock ordering follows B+tree crabbing rules.
	Latch sync.RWMutex

	// Remote is written only under the X latch, or by the filler of a
	// filling frame, which nobody else reaches.
	Remote RemoteInfo

	// NewestLSN is the LSN of the last redo record modifying this frame.
	// On the RW the frame may only leave the cache once the page chunks
	// have acknowledged redo up to it.
	NewestLSN types.LSN

	pins  atomic.Int32
	dirty atomic.Bool

	// The local PIB bit is a pair of counts, not a flag: invals counts the
	// invalidations received, current is the value of invals the contents
	// were read under. A refresher that cleared a flag after its read would
	// erase an invalidation that landed in between; publishing the count it
	// read before the read cannot. A fill is a refresh of a frame that was
	// never current: it starts at one invalidation.
	invals  atomic.Uint64
	current atomic.Uint64

	lruElem *list.Element
	state   state // guarded by Cache.mu
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

// EvictFn is called (outside cache locks) with a victim frame detached
// from the LRU. It must write back / unregister as needed. The frame is
// unpinned; until the callback returns, its page reads as evicting.
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
// Transit interlock: a page's frame is in the map from the moment its fill
// starts (GetOrFill) until its evict callback returns, so a fill and an
// eviction of one page never overlap — a fill waits out the write-back
// (which may block on redo shipping) instead of resurrecting a stale
// image. A filling frame takes no LRU slot, no capacity and no pin until
// it is published.
type Cache struct {
	mu       sync.Mutex
	changed  *sync.Cond // a frame left the filling or evicting state
	capacity int
	frames   map[uint64]*Frame
	lru      *list.List // published *Frame; front = oldest
	evict    EvictFn

	hits, misses, in, out atomic.Uint64
}

// New creates a cache holding up to capacity pages. evict may be nil.
func New(capacity int, evict EvictFn) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity: capacity,
		frames:   make(map[uint64]*Frame, capacity),
		lru:      list.New(),
		evict:    evict,
	}
	c.changed = sync.NewCond(&c.mu)
	return c
}

// Capacity returns the current frame capacity.
func (c *Cache) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// pinPublishedLocked waits out a fill or an eviction of the page and
// returns its published frame pinned, with its LRU age refreshed, or nil.
func (c *Cache) pinPublishedLocked(key uint64) *Frame {
	for {
		f, ok := c.frames[key]
		switch {
		case !ok:
			return nil
		case f.state == resident:
			f.Pin()
			c.lru.MoveToBack(f.lruElem)
			return f
		}
		c.changed.Wait()
	}
}

// Get returns the pinned published frame for id, or nil on miss. A page
// being filled or evicted is waited for.
func (c *Cache) Get(id types.PageID) *Frame {
	f, _ := c.get(id, false)
	return f
}

// GetOrFill is Get that, on a miss, puts a new frame for id in the map as
// filling and returns it with fill set: invalid, unpinned and reachable
// by nobody else until the caller, its filler, hands it to Publish or
// Abandon.
func (c *Cache) GetOrFill(id types.PageID) (f *Frame, fill bool) { return c.get(id, true) }

func (c *Cache) get(id types.PageID, fill bool) (*Frame, bool) {
	c.mu.Lock()
	if f := c.pinPublishedLocked(id.Key()); f != nil {
		c.mu.Unlock()
		c.hits.Add(1)
		return f, false
	}
	if !fill {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	f := &Frame{ID: id, state: filling}
	f.invals.Store(1)
	c.frames[id.Key()] = f
	c.mu.Unlock()
	c.misses.Add(1)
	// Outside the lock every fetch takes: an allocation may stop to assist
	// the collector, and every reader would wait with it.
	f.Data = make([]byte, types.PageSize)
	return f, true
}

// Publish makes a filling frame resident (pinned once on return), evicting
// LRU unpinned frames as needed. On ErrAllPinned the frame stays filling,
// for the caller to Abandon.
func (c *Cache) Publish(f *Frame) error {
	c.mu.Lock()
	victims, ok := c.detachLocked(c.capacity - 1)
	if !ok {
		c.mu.Unlock()
		// The victims already detached cannot go back: evict them anyway
		// rather than lose their writes.
		c.runEvicts(victims)
		return ErrAllPinned
	}
	f.state = resident
	f.Pin()
	f.lruElem = c.lru.PushBack(f)
	c.changed.Broadcast()
	c.mu.Unlock()
	c.in.Add(1)
	c.runEvicts(victims)
	//polarvet:allow pairing the published frame's pin is the filler's, as a fetched frame's is its caller's
	return nil
}

// Abandon drops a filling frame whose fill failed; a waiter for the page
// starts a fill of its own.
func (c *Cache) Abandon(f *Frame) {
	c.mu.Lock()
	delete(c.frames, f.ID.Key())
	c.changed.Broadcast()
	c.mu.Unlock()
}

// Insert publishes a frame the caller has filled itself (pinned once on
// return), evicting LRU unpinned frames as needed. If id is already
// resident the existing frame is returned instead and the argument is
// discarded.
func (c *Cache) Insert(f *Frame) (*Frame, error) {
	c.mu.Lock()
	if existing := c.pinPublishedLocked(f.ID.Key()); existing != nil {
		c.mu.Unlock()
		return existing, nil
	}
	f.state = filling
	c.frames[f.ID.Key()] = f
	c.mu.Unlock()
	if err := c.Publish(f); err != nil {
		c.Abandon(f)
		return nil, err
	}
	return f, nil
}

// detachLocked takes unpinned frames out of the LRU, oldest first, until
// at most n are published, and marks them evicting until runEvicts
// completes. It reports false if pinned frames keep more than n.
func (c *Cache) detachLocked(n int) (victims []*Frame, ok bool) {
	for e := c.lru.Front(); e != nil && c.lru.Len() > n; {
		f, next := e.Value.(*Frame), e.Next()
		if f.Pins() == 0 {
			c.lru.Remove(e)
			f.lruElem, f.state = nil, evicting
			victims = append(victims, f)
		}
		e = next
	}
	return victims, c.lru.Len() <= n
}

func (c *Cache) runEvicts(victims []*Frame) {
	for _, f := range victims {
		c.out.Add(1)
		if c.evict != nil {
			c.evict(f)
		}
		c.mu.Lock()
		delete(c.frames, f.ID.Key())
		c.changed.Broadcast()
		c.mu.Unlock()
	}
}

// Remove detaches a specific published frame (e.g. a page dropped by slab
// failure or freed by a B+tree merge) without invoking the evict callback.
// Returns the frame if it was resident.
func (c *Cache) Remove(id types.PageID) *Frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.frames[id.Key()]
	if !ok || f.state != resident {
		return nil
	}
	c.lru.Remove(f.lruElem)
	f.lruElem = nil
	delete(c.frames, id.Key())
	return f
}

// Probe reports whether a fetch of id would read nothing: its frame is
// published and valid, or being filled (the fetch would wait for that
// fill). It is not an access: no pin, no LRU move, no hit or miss counted.
func (c *Cache) Probe(id types.PageID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.frames[id.Key()]
	return ok && (f.state == filling || f.state == resident && !f.Invalid())
}

// Invalidate sets the local PIB bit on the page's published or filling
// frame, if any — a fill's image may have been read before the
// invalidation. It is an RO node's invalidation callback (§3.1.4), and its
// purge callback, page by page: it never waits.
func (c *Cache) Invalidate(id types.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.frames[id.Key()]; ok && f.state != evicting {
		f.Invalidate()
	}
}

// Resize changes the capacity, evicting LRU frames if shrinking.
func (c *Cache) Resize(capacity int) error {
	if capacity < 1 {
		capacity = 1
	}
	c.mu.Lock()
	c.capacity = capacity
	victims, _ := c.detachLocked(c.capacity)
	c.mu.Unlock()
	c.runEvicts(victims)
	return nil
}

// EvictAll flushes every unpinned frame through the evict callback
// (planned shutdown: write everything back to remote memory).
func (c *Cache) EvictAll() {
	c.mu.Lock()
	victims, _ := c.detachLocked(0)
	c.mu.Unlock()
	c.runEvicts(victims)
}

// ForEach calls fn with every published frame (snapshot; frames may be
// evicted concurrently). Used by checkpointing and planned handover.
func (c *Cache) ForEach(fn func(*Frame)) {
	c.mu.Lock()
	snapshot := make([]*Frame, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		snapshot = append(snapshot, e.Value.(*Frame))
	}
	c.mu.Unlock()
	for _, f := range snapshot {
		fn(f)
	}
}

// Stats returns traffic counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	resident, capacity := c.lru.Len(), c.capacity
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
