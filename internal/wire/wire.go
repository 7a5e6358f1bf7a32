// Package wire provides a compact, allocation-light binary codec for the
// RPC messages exchanged between simulated nodes. Every message type in
// the repository implements its own Marshal/Unmarshal on top of these
// primitives; we deliberately avoid reflective codecs (encoding/gob) on
// hot paths such as page registration and log shipping.
//
// Buffer ownership: a buffer handed to an RPC or proposed as a raft
// command is never written again, by its sender or by anyone it reaches.
// A length-prefixed field therefore has two readers. Bytes32 copies, for
// a value that outlives a buffer someone may reuse; View32 aliases, for a
// value read out of such a never-written buffer (the redo path decodes
// its record batches this way, from the request to every chunk replica).
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrShort is returned when a buffer ends before a value is complete.
var ErrShort = errors.New("wire: short buffer")

// Writer appends primitive values to a byte slice.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a length-prefixed (uint32) byte slice.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes primitive values from a byte slice. The first decoding
// error sticks; check Err once after all reads.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the sticky decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Count reads a uint32 element count for a list of elem-byte elements
// that follows it. A count the rest of the buffer cannot hold fails with
// ErrShort and reads as 0, so a decoder can size its list from it before
// reading the elements.
func (r *Reader) Count(elem int) int {
	n := int(r.U32())
	if n > r.Remaining()/elem {
		r.err = ErrShort
		return 0
	}
	return n
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a length-prefixed byte slice. The result is a copy, safe
// to retain after the underlying buffer is reused.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// View32 reads a length-prefixed byte slice without copying it: the
// result aliases the reader's buffer and is valid as long as that buffer
// is not written. Its capacity ends with it, so appending to it cannot
// reach the bytes that follow.
func (r *Reader) View32() []byte {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return b[:n:n]
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
