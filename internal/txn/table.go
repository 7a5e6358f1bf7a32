package txn

import (
	"polardb/internal/types"
)

// Persistent transaction slot table, stored in page 0 of the undo
// tablespace. Recovery "scans the undo header to construct the state of
// all active transactions" (§5.1 step 7) — that header is this page.
//
// Page 0 layout:
//
//	 0..8   page LSN (engine-maintained)
//	 8..12  next undo page to append into
//	12..16  next free offset within that page
//	16..24  CTS high watermark (highest commit timestamp ever issued;
//	        recovery restarts the CTS sequence above it)
//	24..    transaction slots, 24 bytes each
//
// Undo data pages start at page 1 of the undo space and are filled
// append-only; each undo record's in-page offset is stable, so (page,off)
// pointers in record headers and rollback chains stay valid forever.

// Transaction slot states.
const (
	SlotFree      = 0
	SlotActive    = 1
	SlotCommitted = 2
	SlotAborting  = 3
)

const (
	undoAllocPageOff = 8
	undoAllocOffOff  = 12
	ctsWatermarkOff  = 16
	slotBase         = 24
	slotBytes        = 24
)

// CTSWatermarkOffset is the header-page offset of the CTS high watermark.
const CTSWatermarkOffset = ctsWatermarkOff

// MarshalCTSWatermark encodes the watermark for a logged header write.
func MarshalCTSWatermark(cts types.Timestamp) []byte {
	buf := make([]byte, 8)
	putU64(buf, uint64(cts))
	return buf
}

// CTSWatermark reads the persisted watermark from the header page.
func CTSWatermark(page []byte) types.Timestamp {
	return types.Timestamp(getU64(page[ctsWatermarkOff:]))
}

// viewSlots is the number of transaction slots in the header page, and
// therefore the fixed capacity of the published view block (cts.go).
const viewSlots = (types.PageSize - slotBase) / slotBytes

// SlotCount is the number of transaction slots in the header page — the
// maximum number of concurrently open read-write transactions that have
// written.
func SlotCount() int { return viewSlots }

// SlotOffset returns the byte offset of slot i within the header page.
func SlotOffset(i int) int { return slotBase + i*slotBytes }

// TxnSlot is one persistent transaction table entry.
type TxnSlot struct {
	Trx          types.TrxID
	State        uint8
	LastUndoPage types.PageNo
	LastUndoOff  uint16
}

// Marshal encodes the slot (slotBytes long).
func (s *TxnSlot) Marshal() []byte {
	buf := make([]byte, slotBytes)
	putU64(buf[0:], uint64(s.Trx))
	buf[8] = s.State
	putU16(buf[10:], s.LastUndoOff)
	putU32(buf[12:], uint32(s.LastUndoPage))
	return buf
}

// UnmarshalSlot decodes slot i from the header page.
func UnmarshalSlot(page []byte, i int) TxnSlot {
	off := SlotOffset(i)
	return TxnSlot{
		Trx:          types.TrxID(getU64(page[off:])),
		State:        page[off+8],
		LastUndoOff:  getU16(page[off+10:]),
		LastUndoPage: types.PageNo(getU32(page[off+12:])),
	}
}

// ScanUnfinished returns every slot holding an active or aborting
// transaction — the set recovery must roll back.
func ScanUnfinished(page []byte) []TxnSlot {
	var out []TxnSlot
	for i := 0; i < SlotCount(); i++ {
		s := UnmarshalSlot(page, i)
		if s.State == SlotActive || s.State == SlotAborting {
			out = append(out, s)
		}
	}
	return out
}

// MaxTrxID returns the highest transaction id recorded in any slot, used
// by recovery to restart the trx id sequence above everything persisted.
func MaxTrxID(page []byte) types.TrxID {
	var max types.TrxID
	for i := 0; i < SlotCount(); i++ {
		if s := UnmarshalSlot(page, i); s.Trx > max {
			max = s.Trx
		}
	}
	return max
}

// UndoAlloc reads the undo append cursor from the header page.
func UndoAlloc(page []byte) (types.PageNo, uint16) {
	return types.PageNo(getU32(page[undoAllocPageOff:])), uint16(getU32(page[undoAllocOffOff:]))
}

// MarshalUndoAlloc encodes the undo append cursor; callers log it at
// offset UndoAllocOffset within the header page.
func MarshalUndoAlloc(page types.PageNo, off uint16) []byte {
	buf := make([]byte, 8)
	putU32(buf[0:], uint32(page))
	putU32(buf[4:], uint32(off))
	return buf
}

// UndoAllocOffset is the header-page offset of the undo append cursor.
const UndoAllocOffset = undoAllocPageOff
