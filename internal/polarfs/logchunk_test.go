package polarfs

import (
	"encoding/hex"
	"slices"
	"testing"

	"polardb/internal/plog"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// lsns returns the records' LSNs, in order.
func lsns(recs []plog.Record) []types.LSN {
	out := make([]types.LSN, len(recs))
	for i, r := range recs {
		out[i] = r.LSN
	}
	return out
}

// span returns one record per LSN in [from, to], on one page.
func span(from, to types.LSN) []plog.Record { return spanOf(from, to, "r") }

func spanOf(from, to types.LSN, data string) []plog.Record {
	var recs []plog.Record
	for l := from; l <= to; l++ {
		recs = append(recs, rec(l, 1, 1, uint16(l), data))
	}
	return recs
}

func TestLogTruncateInsideBatch(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	for _, b := range [][]plog.Record{span(1, 3), span(4, 6)} {
		if _, err := v.client.AppendRedo(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		upTo types.LSN
		want []types.LSN
	}{
		{2, []types.LSN{3, 4, 5, 6}}, // inside the first batch
		{5, []types.LSN{6}},          // the first batch goes, inside the second
		{5, []types.LSN{6}},          // again: nothing moves
	} {
		if err := v.client.TruncateRedo(c.upTo); err != nil {
			t.Fatal(err)
		}
		got, err := v.client.ReadRedo(0, 0)
		if err != nil || !slices.Equal(lsns(got), c.want) {
			t.Fatalf("after truncating to %d: %v, %v; want %v", c.upTo, lsns(got), err, c.want)
		}
	}
	if tail, err := v.client.RedoTail(); err != nil || tail != 6 {
		t.Fatalf("tail = %d, %v; want 6", tail, err)
	}
}

func TestLogRetryOverlappingTail(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	if _, err := v.client.AppendRedo(span(1, 3)); err != nil {
		t.Fatal(err)
	}
	// A retry that carries the tail and more: 2 and 3 are the log's
	// already, 4 and 5 are new.
	tail, err := v.client.AppendRedo(spanOf(2, 5, "R"))
	if err != nil || tail != 5 {
		t.Fatalf("retried append: tail %d, %v; want 5", tail, err)
	}
	got, err := v.client.ReadRedo(0, 0)
	if want := []types.LSN{1, 2, 3, 4, 5}; err != nil || !slices.Equal(lsns(got), want) {
		t.Fatalf("read back %v, %v; want each LSN once: %v", lsns(got), err, want)
	}
	// 2 and 3 are the first append's records, 4 and 5 the retry's.
	for i, want := range []string{"r", "r", "r", "R", "R"} {
		if string(got[i].Data) != want {
			t.Fatalf("record %d = %q, want %q", got[i].LSN, got[i].Data, want)
		}
	}
}

func TestReadRedoMaxAcrossBatches(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	for _, b := range [][]plog.Record{span(1, 3), span(4, 6), span(7, 8)} {
		if _, err := v.client.AppendRedo(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		after types.LSN
		max   int
		want  []types.LSN
	}{
		{0, 4, []types.LSN{1, 2, 3, 4}},
		{2, 2, []types.LSN{3, 4}},
		{3, 3, []types.LSN{4, 5, 6}},
		{4, 3, []types.LSN{5, 6, 7}},
		{6, 0, []types.LSN{7, 8}},
		{8, 5, []types.LSN{}},
	} {
		got, err := v.client.ReadRedo(c.after, c.max)
		if err != nil || !slices.Equal(lsns(got), c.want) {
			t.Errorf("ReadRedo(%d, %d) = %v, %v; want %v", c.after, c.max, lsns(got), err, c.want)
		}
	}
}

func logAppend(recs []plog.Record) []byte { return appendCommand(plog.MarshalRecords(recs)) }

func logTruncate(upTo types.LSN) []byte {
	w := wire.NewWriter(9)
	w.U8(logCmdTruncate)
	w.U64(uint64(upTo))
	return w.Bytes()
}

// TestLogTruncateDropsBatchReferences: a truncated batch is garbage. No
// slot of the log's backing array, live or vacated, still points at its
// bytes; the log is truncated every few hundred milliseconds, so a slot
// that did would keep the whole log's history reachable.
func TestLogTruncateDropsBatchReferences(t *testing.T) {
	sm := &logChunkSM{}
	for i := range 8 {
		from := types.LSN(3*i + 1)
		sm.Apply(uint64(i+1), logAppend(span(from, from+2)))
	}
	dropped := map[*byte]bool{}
	for _, b := range sm.batches[:5] {
		dropped[&b.recs[0]] = true
	}
	before := sm.batches[:cap(sm.batches)]
	sm.Apply(9, logTruncate(16)) // the sixth batch holds 16..18
	for name, slots := range map[string][]logBatch{"old": before, "new": sm.batches[:cap(sm.batches)]} {
		for i, b := range slots {
			if len(b.recs) > 0 && dropped[&b.recs[0]] {
				t.Errorf("%s backing array, slot %d, still holds the dropped batch (%d, %d]", name, i, b.after, b.last)
			}
		}
	}
	got, err := sm.readFrom(0, 0)
	if want := []types.LSN{17, 18, 19, 20, 21, 22, 23, 24}; err != nil || !slices.Equal(lsns(got), want) {
		t.Fatalf("after truncating to 16: %v, %v; want %v", lsns(got), err, want)
	}
}

func TestLogReadReportsCorruptBatch(t *testing.T) {
	sm := &logChunkSM{}
	sm.Apply(1, logAppend(span(1, 2)))
	sm.batches = append(sm.batches, logBatch{after: 2, last: 4, recs: []byte{2, 0, 0, 0, 1}})
	if got, err := sm.readFrom(0, 0); err == nil {
		t.Fatalf("a read over a batch that does not decode returned %v and no error", lsns(got))
	}
	if got, err := sm.readFrom(0, 1); err != nil || !slices.Equal(lsns(got), []types.LSN{1}) {
		t.Fatalf("a read that stops before the bad batch: %v, %v", lsns(got), err)
	}
}

// TestPageChunkApplyAllocatesNothing: a batch of 32 records onto pages the
// chunk already holds is applied in place.
func TestPageChunkApplyAllocatesNothing(t *testing.T) {
	sm := &pageChunkSM{pages: make(map[uint64]*pageImage)}
	const runs = 100
	cmds := make([][]byte, runs+2)
	lsn := types.LSN(0)
	for i := range cmds {
		var recs []plog.Record
		for j := range 32 {
			lsn++
			recs = append(recs, rec(lsn, 2, types.PageNo(j%8), uint16(j*16), "sixteen bytes..."))
		}
		cmds[i] = addRequest(recs, lsn)
	}
	sm.Apply(1, cmds[0]) // the pages exist from here on
	i := 1
	if n := testing.AllocsPerRun(runs, func() {
		sm.Apply(uint64(i+1), cmds[i])
		i++
	}); n != 0 {
		t.Fatalf("pageChunkSM.Apply of 32 records allocated %.1f times per batch, want 0", n)
	}
	if sm.coverage != lsn {
		t.Fatalf("coverage = %d, want %d", sm.coverage, lsn)
	}
}

func TestLogChunkApplyAllocatesOncePerBatch(t *testing.T) {
	sm := &logChunkSM{}
	const runs = 200
	cmds := make([][]byte, runs+1)
	for i := range cmds {
		from := types.LSN(32*i + 1)
		cmds[i] = logAppend(span(from, from+31))
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		sm.Apply(uint64(i+1), cmds[i])
		i++
	}); n > 1 {
		t.Fatalf("logChunkSM.Apply allocated %.2f times per batch, want at most 1", n)
	}
	if len(sm.batches) != runs+1 || sm.tail != types.LSN(32*(runs+1)) {
		t.Fatalf("log holds %d batches to %d", len(sm.batches), sm.tail)
	}
}

// TestRedoWireGolden pins the bytes of a page chunk's add request and a
// log chunk's append command to the layouts encoded before a batch was
// written straight into its message.
func TestRedoWireGolden(t *testing.T) {
	recs := []plog.Record{
		rec(5, 1, 2, 10, "ab"),
		rec(6, 3, 4, 100, "xyz"),
		{LSN: 9, Page: types.PageID{Space: 1, No: 2}},
	}
	const batch = "03000000" +
		"0500000000000000" + "01000000" + "02000000" + "0a00" + "02000000" + "6162" +
		"0600000000000000" + "03000000" + "04000000" + "6400" + "03000000" + "78797a" +
		"0900000000000000" + "01000000" + "02000000" + "0000" + "00000000"
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"add request", addRequest(recs, 9), "0900000000000000" + "4b000000" + batch},
		{"log append command", appendCommand(plog.MarshalRecords(recs)), "01" + "4b000000" + batch},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		if cap(c.got) != len(c.got) {
			t.Errorf("%s: buffer of %d bytes for %d", c.name, cap(c.got), len(c.got))
		}
	}
}
