package plog

import (
	"bytes"
	"encoding/hex"
	"sync"
	"testing"
	"testing/quick"

	"polardb/internal/types"
	"polardb/internal/wire"
)

func TestRecordMarshalRoundTrip(t *testing.T) {
	in := []Record{
		{LSN: 1, Page: types.PageID{Space: 3, No: 9}, Off: 100, Data: []byte("abc")},
		{LSN: 2, Page: types.PageID{Space: 1, No: 1}, Off: 0, Data: nil},
		{LSN: 3, Page: types.PageID{Space: 7, No: 2}, Off: 4000, Data: bytes.Repeat([]byte{0xFF}, 96)},
	}
	buf := MarshalRecords(in)
	size := 4 // the record count
	for i := range in {
		size += in[i].size()
	}
	if len(buf) != size {
		t.Fatalf("marshalled %d bytes, size says %d", len(buf), size)
	}
	out, err := UnmarshalRecords(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].LSN != in[i].LSN || out[i].Page != in[i].Page || out[i].Off != in[i].Off ||
			!bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("record %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := UnmarshalRecords([]byte{5, 0, 0, 0, 1}); err == nil {
		t.Fatal("corrupt buffer decoded without error")
	}
}

func TestApplyToPage(t *testing.T) {
	page := make([]byte, types.PageSize)
	r := Record{Off: 10, Data: []byte("xyz")}
	if err := r.ApplyToPage(page); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if string(page[10:13]) != "xyz" {
		t.Fatalf("page content %q", page[10:13])
	}
	bad := Record{Off: types.PageSize - 1, Data: []byte("overflow")}
	if err := bad.ApplyToPage(page); err == nil {
		t.Fatal("out-of-range record applied without error")
	}
}

func TestMTRAccumulatesAndDedupsPages(t *testing.T) {
	m := NewMTR()
	if !m.Empty() {
		t.Fatal("new MTR not empty")
	}
	p1 := types.PageID{Space: 1, No: 1}
	p2 := types.PageID{Space: 1, No: 2}
	m.LogWrite(p1, 0, []byte{1})
	m.LogWrite(p1, 8, []byte{2})
	m.LogWrite(p2, 0, []byte{3})
	if m.Empty() || len(m.Records()) != 3 {
		t.Fatalf("records = %d, want 3", len(m.Records()))
	}
	pages := m.Pages()
	if len(pages) != 2 {
		t.Fatalf("distinct pages = %d, want 2", len(pages))
	}
}

func TestMTRCopiesData(t *testing.T) {
	m := NewMTR()
	buf := []byte{1, 2, 3}
	m.LogWrite(types.PageID{Space: 1, No: 1}, 0, buf)
	buf[0] = 99
	if m.Records()[0].Data[0] != 1 {
		t.Fatal("MTR aliased caller's buffer")
	}
}

func TestBufferAssignsContiguousLSNs(t *testing.T) {
	b := NewBuffer(0)
	m1, m2 := NewMTR(), NewMTR()
	p := types.PageID{Space: 1, No: 1}
	m1.LogWrite(p, 0, []byte{1})
	m1.LogWrite(p, 1, []byte{2})
	m2.LogWrite(p, 2, []byte{3})
	end1 := b.Append(m1)
	end2 := b.Append(m2)
	if end1 != 2 || end2 != 3 {
		t.Fatalf("commit LSNs = %d,%d; want 2,3", end1, end2)
	}
	recs := b.Drain()
	for i, r := range recs {
		if r.LSN != types.LSN(i+1) {
			t.Fatalf("rec %d lsn = %d", i, r.LSN)
		}
	}
	if got := b.Drain(); len(got) != 0 {
		t.Fatalf("second drain returned %d records", len(got))
	}
}

func TestBufferConcurrentAppendLSNsUnique(t *testing.T) {
	b := NewBuffer(100)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := NewMTR()
				m.LogWrite(types.PageID{Space: 1, No: 1}, 0, []byte{0})
				b.Append(m)
			}
		}()
	}
	wg.Wait()
	recs := b.Drain()
	if len(recs) != workers*per {
		t.Fatalf("records = %d", len(recs))
	}
	seen := make(map[types.LSN]bool, len(recs))
	for _, r := range recs {
		if seen[r.LSN] {
			t.Fatalf("duplicate LSN %d", r.LSN)
		}
		if r.LSN <= 100 {
			t.Fatalf("LSN %d not after start", r.LSN)
		}
		seen[r.LSN] = true
	}
}

func TestWaitFlushed(t *testing.T) {
	b := NewBuffer(0)
	m := NewMTR()
	m.LogWrite(types.PageID{Space: 1, No: 1}, 0, []byte{1})
	lsn := b.Append(m)

	done := make(chan struct{})
	go func() {
		b.Wait(Durable, lsn)
		close(done)
	}()
	// Draining and shipping are not durability.
	b.Drain()
	b.Advance(Shipped, lsn)
	select {
	case <-done:
		t.Fatal("the durable wait returned before the Durable watermark moved")
	default:
	}
	b.Advance(Durable, lsn)
	<-done
	if got := b.Mark(Durable); got != lsn {
		t.Fatalf("durable = %d, want %d", got, lsn)
	}
	// A watermark never regresses.
	b.Advance(Durable, lsn-1)
	if b.Mark(Durable) != lsn {
		t.Fatal("durable LSN regressed")
	}
}

// TestDrainAdvancesDrainedAndFailReleasesEveryWaiter: Drain moves the
// Drained watermark to its last record by itself, and Fail ends the waits
// on every watermark with false.
func TestDrainAdvancesDrainedAndFailReleasesEveryWaiter(t *testing.T) {
	b := NewBuffer(10)
	m := NewMTR()
	m.LogWrite(types.PageID{Space: 1, No: 1}, 8, []byte{1})
	m.LogWrite(types.PageID{Space: 1, No: 2}, 8, []byte{2})
	lsn := b.Append(m)
	if got := b.Mark(Drained); got != 10 {
		t.Fatalf("drained = %d before the drain, want the start LSN 10", got)
	}
	if recs := b.Drain(); len(recs) != 2 || b.Mark(Drained) != lsn {
		t.Fatalf("drained %d records, watermark %d; want 2 and %d", len(recs), b.Mark(Drained), lsn)
	}
	if !b.Wait(Drained, lsn) {
		t.Fatal("a wait on a reached watermark failed")
	}
	results := make(chan bool, 2)
	for _, w := range []Watermark{Durable, Shipped} {
		go func() { results <- b.Wait(w, lsn) }()
	}
	b.Fail()
	for i := 0; i < 2; i++ {
		if <-results {
			t.Fatal("a wait for an unreached watermark succeeded after Fail")
		}
	}
}

// Property: replaying a random sequence of records in order yields the same
// page as applying the writes directly.
func TestReplayEquivalenceProperty(t *testing.T) {
	prop := func(writes []struct {
		Off  uint16
		Data []byte
	}) bool {
		direct := make([]byte, types.PageSize)
		replayed := make([]byte, types.PageSize)
		var recs []Record
		for _, w := range writes {
			off := int(w.Off) % types.PageSize
			data := w.Data
			if len(data) > types.PageSize-off {
				data = data[:types.PageSize-off]
			}
			copy(direct[off:], data)
			recs = append(recs, Record{Page: types.PageID{Space: 1, No: 1}, Off: uint16(off), Data: data})
		}
		// Round-trip through the wire format, then replay.
		decoded, err := UnmarshalRecords(MarshalRecords(recs))
		if err != nil {
			return false
		}
		for i := range decoded {
			if err := decoded[i].ApplyToPage(replayed); err != nil {
				return false
			}
		}
		return bytes.Equal(direct, replayed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func goldenRecords() []Record {
	return []Record{
		{LSN: 5, Page: types.PageID{Space: 1, No: 2}, Off: 10, Data: []byte("ab")},
		{LSN: 6, Page: types.PageID{Space: 3, No: 4}, Off: 100, Data: []byte("xyz")},
		{LSN: 9, Page: types.PageID{Space: 1, No: 2}},
	}
}

// TestRecordBatchGolden pins the batch layout: a little-endian record
// count, then per record its LSN, space, page number, offset and a
// length-prefixed data field. AppendRecords writes the same batch behind
// a length prefix.
func TestRecordBatchGolden(t *testing.T) {
	const want = "03000000" +
		"0500000000000000" + "01000000" + "02000000" + "0a00" + "02000000" + "6162" +
		"0600000000000000" + "03000000" + "04000000" + "6400" + "03000000" + "78797a" +
		"0900000000000000" + "01000000" + "02000000" + "0000" + "00000000"
	got := MarshalRecords(goldenRecords())
	if h := hex.EncodeToString(got); h != want {
		t.Fatalf("batch:\n got %s\nwant %s", h, want)
	}
	if len(got) != BatchSize(goldenRecords()) || cap(got) != len(got) {
		t.Fatalf("batch of %d bytes in a buffer of %d, BatchSize says %d", len(got), cap(got), BatchSize(goldenRecords()))
	}
	w := wire.NewWriter(0)
	w.U8(0xEE)
	AppendRecords(w, goldenRecords())
	if h := hex.EncodeToString(w.Bytes()); h != "ee"+"4b000000"+want {
		t.Fatalf("AppendRecords wrote %s", h)
	}
}

func TestMarshalRecordsAllocatesOnce(t *testing.T) {
	recs := goldenRecords()
	recs[1].Data = bytes.Repeat([]byte{7}, 300) // more than any guess per record
	var out []byte
	if n := testing.AllocsPerRun(100, func() { out = MarshalRecords(recs) }); n != 1 {
		t.Fatalf("MarshalRecords allocated %.1f times, want 1", n)
	}
	_ = out
}

// TestBatchReaderWalksInPlace: the records a walk yields alias the batch,
// and a batch that does not decode is refused before any record is seen.
func TestBatchReaderWalksInPlace(t *testing.T) {
	buf := MarshalRecords(goldenRecords())
	b, err := ReadRecords(buf)
	if err != nil || b.Len() != 3 {
		t.Fatalf("ReadRecords: %d records, %v", b.Len(), err)
	}
	var r Record
	if !b.Next(&r) || r.LSN != 5 || string(r.Data) != "ab" {
		t.Fatalf("first record %+v", r)
	}
	buf[4+types.RedoRecordHeader] = 'A'
	if string(r.Data) != "Ab" {
		t.Fatalf("record data %q does not alias the batch", r.Data)
	}
	if n := testing.AllocsPerRun(10, func() {
		b, _ := ReadRecords(buf)
		for b.Next(&r) {
		}
	}); n != 0 {
		t.Fatalf("a walk allocated %.1f times", n)
	}
	if _, err := ReadRecords(buf[:len(buf)-1]); err == nil {
		t.Fatal("a batch missing its last byte was accepted")
	}
}

// FuzzUnmarshalRecords: no input panics the decoder; whatever it accepts
// re-encodes to the bytes it read, so it read no byte from outside the
// input, and no record's data reaches past its own bytes.
func FuzzUnmarshalRecords(f *testing.F) {
	f.Add(MarshalRecords(goldenRecords()))
	f.Add(MarshalRecords(nil))
	f.Add([]byte{5, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := UnmarshalRecords(data)
		if err != nil {
			return
		}
		enc := MarshalRecords(recs)
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("decoded %d records that re-encode to %x, not a prefix of the input %x", len(recs), enc, data)
		}
		b, err := ReadRecords(data)
		if err != nil || b.Len() != len(recs) {
			t.Fatalf("ReadRecords disagrees: %d records, %v", b.Len(), err)
		}
		var r Record
		for i := 0; b.Next(&r); i++ {
			if cap(r.Data) != len(r.Data) {
				t.Fatalf("record %d: data of %d bytes has capacity %d", i, len(r.Data), cap(r.Data))
			}
			if r.LSN != recs[i].LSN || !bytes.Equal(r.Data, recs[i].Data) {
				t.Fatalf("record %d: walk %+v, slice %+v", i, r, recs[i])
			}
		}
	})
}
