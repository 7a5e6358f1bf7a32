package plog

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"polardb/internal/types"
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
