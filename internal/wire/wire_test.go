package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.Bool(true)
	w.Bool(false)
	w.Bytes32([]byte{1, 2, 3})
	w.String("polar")

	r := NewReader(w.Bytes())
	if v := r.U8(); v != 0xAB {
		t.Fatalf("u8 = %#x", v)
	}
	if v := r.U16(); v != 0xBEEF {
		t.Fatalf("u16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("u32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123456789ABCDEF {
		t.Fatalf("u64 = %#x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools wrong")
	}
	if b := r.Bytes32(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", b)
	}
	if s := r.String(); s != "polar" {
		t.Fatalf("string = %q", s)
	}
	if r.Err() != nil {
		t.Fatalf("err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestShortBufferSticks(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64()
	if !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("err = %v, want ErrShort", r.Err())
	}
	// Error sticks; subsequent reads return zero values.
	if v := r.U32(); v != 0 {
		t.Fatalf("read after error = %d, want 0", v)
	}
}

func TestEmptyBytes32(t *testing.T) {
	w := NewWriter(8)
	w.Bytes32(nil)
	r := NewReader(w.Bytes())
	b := r.Bytes32()
	if r.Err() != nil || len(b) != 0 {
		t.Fatalf("empty bytes32: %v %v", b, r.Err())
	}
}

func TestBytes32IsCopy(t *testing.T) {
	w := NewWriter(16)
	w.Bytes32([]byte{9, 9})
	buf := w.Bytes()
	r := NewReader(buf)
	b := r.Bytes32()
	buf[4] = 0 // mutate underlying buffer; decoded copy must be unaffected
	if b[0] != 9 {
		t.Fatal("Bytes32 aliased the source buffer")
	}
}

// Property: arbitrary (u64, bytes, string, bool) tuples round-trip.
func TestQuickRoundTrip(t *testing.T) {
	prop := func(a uint64, b []byte, s string, f bool) bool {
		w := NewWriter(32)
		w.U64(a)
		w.Bytes32(b)
		w.String(s)
		w.Bool(f)
		r := NewReader(w.Bytes())
		a2, b2, s2, f2 := r.U64(), r.Bytes32(), r.String(), r.Bool()
		return r.Err() == nil && a2 == a && bytes.Equal(b2, b) && s2 == s && f2 == f
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestView32Aliases(t *testing.T) {
	w := NewWriter(16)
	w.Bytes32([]byte{9, 9})
	w.U8(7)
	buf := w.Bytes()
	r := NewReader(buf)
	b := r.View32()
	if r.Err() != nil || !bytes.Equal(b, []byte{9, 9}) {
		t.Fatalf("View32 = %v, %v", b, r.Err())
	}
	buf[4] = 1 // the view sees writes to the buffer it was read from
	if b[0] != 1 {
		t.Fatal("View32 copied the source buffer")
	}
	if cap(b) != len(b) {
		t.Fatalf("View32 cap = %d, want %d: an append would overwrite the next field", cap(b), len(b))
	}
	_ = append(b, 0)
	if v := r.U8(); v != 7 {
		t.Fatalf("field after the view = %d, want 7", v)
	}

	// A length beyond the buffer is an error and no view.
	r = NewReader([]byte{5, 0, 0, 0, 1})
	if b := r.View32(); b != nil || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("short View32 = %v, %v", b, r.Err())
	}
}
