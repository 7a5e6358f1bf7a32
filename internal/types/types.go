// Package types holds the small identifier types shared by every layer of
// the system: page identifiers, log sequence numbers, transaction ids and
// commit timestamps.
package types

import "fmt"

// PageSize is the size of a database page in bytes. The paper uses 16 KB
// InnoDB pages; we scale down to 4 KB so that MB-scale benchmark datasets
// still span thousands of pages and exercise eviction.
const PageSize = 4096

// RedoRecordHeader is the wire size of a redo record without its data:
// LSN (8), space (4), page (4), offset (2), data length (4).
const RedoRecordHeader = 22

// SpaceID identifies a tablespace (one B+tree index or undo segment group).
type SpaceID uint32

// PageNo is a page's number within its space.
type PageNo uint32

// PageID globally identifies a page as (space, page_no), matching the
// paper's librmem interface.
type PageID struct {
	Space SpaceID
	No    PageNo
}

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.Space, p.No) }

// Key packs the PageID into a uint64 for use as a map key or hash input.
func (p PageID) Key() uint64 { return uint64(p.Space)<<32 | uint64(p.No) }

// LSN is a log sequence number. It totally orders redo log records; a
// page's version is the LSN of the last record applied to it.
type LSN uint64

// TrxID identifies a read-write transaction.
type TrxID uint64

// Timestamp is a commit/read timestamp allocated by the CTS sequence.
type Timestamp uint64

// NodeKind distinguishes the roles nodes play in the cluster.
type NodeKind int

const (
	// KindRW is the single read-write database node.
	KindRW NodeKind = iota
	// KindRO is a read-only database node.
	KindRO
	// KindProxy is a stateless routing node.
	KindProxy
	// KindMemory is a slab (or home) node in the remote memory pool.
	KindMemory
	// KindStorage is a PolarFS storage node.
	KindStorage
)

func (k NodeKind) String() string {
	switch k {
	case KindRW:
		return "rw"
	case KindRO:
		return "ro"
	case KindProxy:
		return "proxy"
	case KindMemory:
		return "memory"
	case KindStorage:
		return "storage"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}
