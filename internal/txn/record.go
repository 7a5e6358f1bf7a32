// Package txn provides the transaction substrate of the engine (§3.3):
// MVCC record and undo-record encodings, the CTS timestamp sequence with
// its RDMA-readable CTS log, snapshot-isolation read views, and the RW
// node's row lock table.
//
// Version storage follows InnoDB: the B+tree holds only the newest version
// of each record; older versions are reconstructed from undo records.
// Undo records live in ordinary pages, so they flow through the same redo
// / remote-memory / storage pipeline as data pages and are readable by RO
// nodes — which is what lets read-only transactions run against shared
// memory without replaying logs.
package txn

import (
	"errors"
	"fmt"

	"polardb/internal/types"
)

// Errors returned by the transaction layer.
var (
	ErrLockTimeout   = errors.New("txn: row lock wait timeout")
	ErrTooManyTxns   = errors.New("txn: transaction slot table full")
	ErrBadRecord     = errors.New("txn: malformed record")
	ErrWriteConflict = errors.New("txn: write conflict")
)

// RecordHeaderSize is the fixed prefix of every record value in an index.
const RecordHeaderSize = 8 + 8 + 4 + 2 + 1

// Record is a versioned row as stored in a B+tree leaf: MVCC header plus
// user payload. The header's Trx/CTS drive visibility; UndoPage/UndoOff
// point at the undo record holding the previous version.
type Record struct {
	Trx       types.TrxID
	CTS       types.Timestamp // 0 = not yet backfilled; consult the CTS log
	UndoPage  types.PageNo    // 0 = no previous version
	UndoOff   uint16
	Tombstone bool // delete-marked: invisible at-or-after the deleting txn
	Payload   []byte
}

// Marshal encodes the record into a value suitable for a B+tree leaf.
func (r *Record) Marshal() []byte {
	buf := make([]byte, RecordHeaderSize+len(r.Payload))
	putU64(buf[0:], uint64(r.Trx))
	putU64(buf[8:], uint64(r.CTS))
	putU32(buf[16:], uint32(r.UndoPage))
	putU16(buf[20:], r.UndoOff)
	if r.Tombstone {
		buf[22] = 1
	}
	copy(buf[RecordHeaderSize:], r.Payload)
	return buf
}

// UnmarshalRecord decodes a leaf value. The payload aliases buf.
func UnmarshalRecord(buf []byte) (Record, error) {
	if len(buf) < RecordHeaderSize {
		return Record{}, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(buf))
	}
	return Record{
		Trx:       types.TrxID(getU64(buf[0:])),
		CTS:       types.Timestamp(getU64(buf[8:])),
		UndoPage:  types.PageNo(getU32(buf[16:])),
		UndoOff:   getU16(buf[20:]),
		Tombstone: buf[22] == 1,
		Payload:   buf[RecordHeaderSize:],
	}, nil
}

// CTSFieldOffset is the byte offset of the CTS field within an encoded
// record: the asynchronous commit-timestamp backfill patches exactly these
// 8 bytes, little-endian, through a logged page write.
const CTSFieldOffset = 8

// UndoType classifies undo records.
type UndoType uint8

// Undo record types.
const (
	UndoUpdate UndoType = 1 // previous version exists and is restored
	UndoInsert UndoType = 2 // record did not exist before
	UndoDelete UndoType = 3 // record existed; delete wrote a tombstone
)

// UndoRec is one entry in the undo log. PrevBytes holds the complete
// previous record value (header + payload), so version chains continue
// through it; for UndoInsert it is empty.
type UndoRec struct {
	Trx        types.TrxID
	Space      types.SpaceID // index tablespace the change applies to
	Key        uint64
	Type       UndoType
	PrevTxnPg  types.PageNo // previous undo of the same txn (rollback chain)
	PrevTxnOff uint16
	PrevBytes  []byte
}

// undoHeaderSize is the fixed prefix of an encoded undo record.
const undoHeaderSize = 8 + 4 + 8 + 1 + 4 + 2 + 2

// EncodedSize returns the full encoded length.
func (u *UndoRec) EncodedSize() int { return undoHeaderSize + len(u.PrevBytes) }

// Marshal encodes the undo record.
func (u *UndoRec) Marshal() []byte {
	buf := make([]byte, u.EncodedSize())
	putU64(buf[0:], uint64(u.Trx))
	putU32(buf[8:], uint32(u.Space))
	putU64(buf[12:], u.Key)
	buf[20] = byte(u.Type)
	putU32(buf[21:], uint32(u.PrevTxnPg))
	putU16(buf[25:], u.PrevTxnOff)
	putU16(buf[27:], uint16(len(u.PrevBytes)))
	copy(buf[undoHeaderSize:], u.PrevBytes)
	return buf
}

// UnmarshalUndo decodes an undo record from a page at the given offset.
func UnmarshalUndo(page []byte, off int) (UndoRec, error) {
	if off+undoHeaderSize > len(page) {
		return UndoRec{}, fmt.Errorf("%w: undo header at %d", ErrBadRecord, off)
	}
	u := UndoRec{
		Trx:        types.TrxID(getU64(page[off:])),
		Space:      types.SpaceID(getU32(page[off+8:])),
		Key:        getU64(page[off+12:]),
		Type:       UndoType(page[off+20]),
		PrevTxnPg:  types.PageNo(getU32(page[off+21:])),
		PrevTxnOff: getU16(page[off+25:]),
	}
	if u.Type < UndoUpdate || u.Type > UndoDelete {
		// A zeroed slot decodes as type 0: the page image is older than the
		// record that points into it.
		return UndoRec{}, fmt.Errorf("%w: undo type %d at %d", ErrBadRecord, u.Type, off)
	}
	n := int(getU16(page[off+27:]))
	if off+undoHeaderSize+n > len(page) {
		return UndoRec{}, fmt.Errorf("%w: undo body at %d len %d", ErrBadRecord, off, n)
	}
	u.PrevBytes = page[off+undoHeaderSize : off+undoHeaderSize+n]
	return u, nil
}

func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
func getU16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func getU64(b []byte) uint64 { return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32 }
