// Package btree implements the disk-format B+tree index used by the
// storage engine: fixed uint64 keys, variable-length values, slotted 4 KB
// pages. Concurrency follows §3.2 of the paper:
//
//   - Local page latches (cache.Frame.Latch) synchronize threads within a
//     database node, with classic latch coupling / crabbing.
//   - Global page latches (PL) synchronize across nodes: SMOs X-latch every
//     page they may touch; read-only traversals either S-latch each page
//     (pessimistic) or validate SMO stamps against an SMO clock snapshot
//     and retry on conflict (optimistic locking, §4.1).
//
// The tree is storage-agnostic: all page access goes through the Store and
// Mtr interfaces, implemented by the PolarDB Serverless engine and by the
// baseline (shared-storage / monolithic) engines.
package btree

import (
	"errors"

	"polardb/internal/cache"
	"polardb/internal/types"
)

// Errors returned by tree operations.
var (
	ErrKeyExists   = errors.New("btree: key already exists")
	ErrKeyNotFound = errors.New("btree: key not found")
	ErrValueTooBig = errors.New("btree: value exceeds MaxValueSize")
	ErrReadOnly    = errors.New("btree: tree opened on a read-only node")
	ErrSMOConflict = errors.New("btree: optimistic traversal hit a concurrent SMO")
)

// MaxValueSize bounds values so a leaf always holds several entries.
const MaxValueSize = 1024

// Mtr is the mini-transaction context write operations log into. The
// implementation applies the write to the frame, records it as redo, and
// keeps the frame pinned until the MTR commits.
type Mtr interface {
	// LogWrite applies data at off within the frame and logs it. The frame
	// must be exclusively latched by the caller.
	LogWrite(f *cache.Frame, off int, data []byte)
	// DeferPLUnlockX schedules the page's global X latch to be released
	// when the MTR commits — after every modified page has been
	// invalidated — so no other node can observe a half-propagated SMO
	// (§3.2: PL latches are held until the SMO completes, and §3.1.4:
	// invalidation precedes the redo flush).
	DeferPLUnlockX(f *cache.Frame)
}

// Store is the page access layer beneath a tree.
type Store interface {
	// Fetch returns a pinned frame holding the page's current contents.
	Fetch(id types.PageID) (*cache.Frame, error)
	// FetchNew is Fetch for a page number the tree has just taken from
	// beyond the end of its space: nothing was ever written there, so the
	// store may hand back a zeroed frame without reading anything.
	FetchNew(id types.PageID) (*cache.Frame, error)
	// Unpin releases a fetched frame.
	Unpin(f *cache.Frame)
	// Warm is a hint: the tree is about to read these pages, and the store
	// may start fetching the ones it does not hold. It returns at once and
	// nothing depends on it — the traversal that follows fetches and
	// validates every page it visits, so a stale or ignored hint only costs
	// the overlap. The slice is the caller's.
	Warm(ids []types.PageID)

	// PLLockX latches a page exclusively for an SMO; the release goes
	// through Mtr.DeferPLUnlockX and may remain sticky on the node.
	PLLockX(f *cache.Frame) error
	// PLLockS / PLUnlockS bracket a pessimistic read of a page.
	PLLockS(f *cache.Frame) error
	PLUnlockS(f *cache.Frame)

	// SMOStamp returns the value SMOs stamp onto the pages they modify.
	// It must be monotone and >= any previously returned SMOClock value
	// (the engine derives both from the redo LSN, which also survives
	// crashes — a property a plain in-memory counter would lack).
	SMOStamp() uint64
	// SMOClock returns the optimistic traversal snapshot: any SMO that
	// completes after this call stamps pages with a strictly greater value.
	// The store may answer from an earlier observation — an older clock
	// only turns more stamps into conflicts — unless fresh is set, as it is
	// on the retry after a conflict: that clock must be taken now, or the
	// retry meets the same stamp again.
	SMOClock(fresh bool) (uint64, error)

	// ReadOnly reports whether this node may modify pages.
	ReadOnly() bool
}

// TraverseMode selects the concurrency protocol for reads.
type TraverseMode int

const (
	// Local uses only local latches — correct on the RW node, whose local
	// cache is coherent with its own writes.
	Local TraverseMode = iota
	// PessimisticS takes global S-latches (PL) page by page, lock-coupled,
	// so a concurrent SMO on the RW node can never be observed half-done.
	PessimisticS
	// Optimistic takes no global latches; it validates every visited
	// page's SMO stamp against an SMO clock snapshot and retries (then
	// falls back to PessimisticS) when a concurrent SMO is detected.
	Optimistic
)

func (m TraverseMode) String() string {
	switch m {
	case Local:
		return "local"
	case PessimisticS:
		return "plock"
	case Optimistic:
		return "olock"
	}
	return "?"
}
