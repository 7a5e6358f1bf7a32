package polarfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"polardb/internal/parallelraft"
	"polardb/internal/plog"
	"polardb/internal/rdma"
	"polardb/internal/types"
)

type testVolume struct {
	fabric *rdma.Fabric
	dep    *Deployment
	client *Client
}

func newTestVolume(t *testing.T, cfg VolumeConfig) *testVolume {
	t.Helper()
	f := rdma.NewFabric(rdma.TestConfig())
	eps := []*rdma.Endpoint{f.MustAttach("st0"), f.MustAttach("st1"), f.MustAttach("st2")}
	dep := Deploy(cfg, eps)
	t.Cleanup(dep.Close)
	db := f.MustAttach("db")
	return &testVolume{fabric: f, dep: dep, client: NewClient(db, dep.Cfg, dep.Peers)}
}

func rec(lsn types.LSN, space types.SpaceID, no types.PageNo, off uint16, data string) plog.Record {
	return plog.Record{LSN: lsn, Page: types.PageID{Space: space, No: no}, Off: off, Data: []byte(data)}
}

// batchOf encodes recs as one batch and returns a reader over it, as a
// chunk sees the batch in a request.
func batchOf(t *testing.T, recs []plog.Record) plog.BatchReader {
	t.Helper()
	b, err := plog.ReadRecords(plog.MarshalRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAppendAndReadRedo(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	recs := []plog.Record{rec(1, 1, 1, 0, "a"), rec(2, 1, 2, 4, "bb")}
	tail, err := v.client.AppendRedo(recs)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if tail != 2 {
		t.Fatalf("tail = %d, want 2", tail)
	}
	got, err := v.client.ReadRedo(0, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 2 || got[0].LSN != 1 || got[1].LSN != 2 {
		t.Fatalf("read back %+v", got)
	}
	got, err = v.client.ReadRedo(1, 0)
	if err != nil || len(got) != 1 || got[0].LSN != 2 {
		t.Fatalf("read after 1: %+v, %v", got, err)
	}
}

func TestAppendRedoIdempotentRetry(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	recs := []plog.Record{rec(1, 1, 1, 0, "a")}
	if _, err := v.client.AppendRedo(recs); err != nil {
		t.Fatal(err)
	}
	// A retry of the same batch must not duplicate records.
	if _, err := v.client.AppendRedo(recs); err != nil {
		t.Fatal(err)
	}
	got, err := v.client.ReadRedo(0, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("records = %d (%v), want 1", len(got), err)
	}
}

func TestTruncateRedo(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	_, err := v.client.AppendRedo([]plog.Record{
		rec(1, 1, 1, 0, "a"), rec(2, 1, 1, 1, "b"), rec(3, 1, 1, 2, "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.client.TruncateRedo(2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	got, err := v.client.ReadRedo(0, 0)
	if err != nil || len(got) != 1 || got[0].LSN != 3 {
		t.Fatalf("after truncate: %+v, %v", got, err)
	}
	// Tail is unaffected by truncation.
	tail, err := v.client.RedoTail()
	if err != nil || tail != 3 {
		t.Fatalf("tail = %d, %v", tail, err)
	}
}

func TestShipAndGetPage(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	id := types.PageID{Space: 1, No: 7}
	recs := []plog.Record{
		{LSN: 1, Page: id, Off: 0, Data: []byte("hello")},
		{LSN: 2, Page: id, Off: 5, Data: []byte(" world")},
	}
	if err := v.client.ShipRecords(recs, 2); err != nil {
		t.Fatalf("ship: %v", err)
	}
	data, lsn, exists, err := v.client.GetPage(id, MaxLSN)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !exists {
		t.Fatal("page should exist")
	}
	if lsn != 2 {
		t.Fatalf("lsn = %d, want 2", lsn)
	}
	if !bytes.Equal(data[:11], []byte("hello world")) {
		t.Fatalf("data = %q", data[:11])
	}
}

func TestGetPageMissing(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	_, _, exists, err := v.client.GetPage(types.PageID{Space: 9, No: 9}, MaxLSN)
	if err != nil {
		t.Fatalf("get missing: %v", err)
	}
	if exists {
		t.Fatal("missing page reported as existing")
	}
}

func TestShipRecordsIdempotentRedistribution(t *testing.T) {
	// Recovery redistributes redo that chunks may already hold; duplicates
	// must not corrupt pages.
	v := newTestVolume(t, VolumeConfig{})
	id := types.PageID{Space: 1, No: 1}
	recs := []plog.Record{
		{LSN: 1, Page: id, Off: 0, Data: []byte("ab")},
		{LSN: 2, Page: id, Off: 1, Data: []byte("cd")},
	}
	if err := v.client.ShipRecords(recs, 2); err != nil {
		t.Fatal(err)
	}
	if err := v.client.ShipRecords(recs, 2); err != nil {
		t.Fatal(err)
	}
	data, lsn, _, err := v.client.GetPage(id, MaxLSN)
	if err != nil || lsn != 2 {
		t.Fatalf("lsn=%d err=%v", lsn, err)
	}
	if string(data[:3]) != "acd" {
		t.Fatalf("data = %q, want acd", data[:3])
	}
}

func TestCoverageAndCheckpoint(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{PageChunks: 2})
	if err := v.client.ShipRecords([]plog.Record{rec(5, 1, 1, 0, "x")}, 5); err != nil {
		t.Fatal(err)
	}
	if err := v.client.AdvanceCoverage(5); err != nil {
		t.Fatal(err)
	}
	cp, err := v.client.CheckpointLSN()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 5 {
		t.Fatalf("checkpoint = %d, want 5 (all partitions advanced)", cp)
	}
}

func TestParallelRedoRecoversPages(t *testing.T) {
	// Write redo to the log chunk but "crash" before shipping to page
	// chunks; ParallelRedo must redistribute and make pages readable.
	v := newTestVolume(t, VolumeConfig{PageChunks: 2})
	id := types.PageID{Space: 3, No: 1}
	recs := []plog.Record{
		{LSN: 1, Page: id, Off: 0, Data: []byte("durable")},
		{LSN: 2, Page: id, Off: 0, Data: []byte("DURABLE")},
	}
	if _, err := v.client.AppendRedo(recs); err != nil {
		t.Fatal(err)
	}
	cp, tail, err := v.client.ParallelRedo()
	if err != nil {
		t.Fatalf("parallel redo: %v", err)
	}
	if cp != 0 || tail != 2 {
		t.Fatalf("cp=%d tail=%d, want 0,2", cp, tail)
	}
	data, lsn, exists, err := v.client.GetPage(id, MaxLSN)
	if err != nil || !exists || lsn != 2 {
		t.Fatalf("get after redo: lsn=%d exists=%v err=%v", lsn, exists, err)
	}
	if string(data[:7]) != "DURABLE" {
		t.Fatalf("data = %q", data[:7])
	}
	// Coverage advanced to tail everywhere.
	cp2, err := v.client.CheckpointLSN()
	if err != nil || cp2 != 2 {
		t.Fatalf("checkpoint after redo = %d, %v", cp2, err)
	}
}

func TestStorageNodeFailureTolerated(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{})
	// Kill one follower storage node: writes and reads keep working.
	v.dep.Nodes[2].Endpoint().Kill()
	id := types.PageID{Space: 1, No: 1}
	if _, err := v.client.AppendRedo([]plog.Record{{LSN: 1, Page: id, Off: 0, Data: []byte("q")}}); err != nil {
		t.Fatalf("append with follower down: %v", err)
	}
	if err := v.client.ShipRecords([]plog.Record{{LSN: 1, Page: id, Off: 0, Data: []byte("q")}}, 1); err != nil {
		t.Fatalf("ship with follower down: %v", err)
	}
	data, _, _, err := v.client.GetPage(id, MaxLSN)
	if err != nil || data[0] != 'q' {
		t.Fatalf("get with follower down: %v", err)
	}
}

func TestStorageLeaderFailover(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{PageChunks: 1})
	id := types.PageID{Space: 1, No: 1}
	if _, err := v.client.AppendRedo([]plog.Record{{LSN: 1, Page: id, Off: 0, Data: []byte("pre")}}); err != nil {
		t.Fatal(err)
	}
	if err := v.client.ShipRecords([]plog.Record{{LSN: 1, Page: id, Off: 0, Data: []byte("pre")}}, 1); err != nil {
		t.Fatal(err)
	}
	// Kill the bootstrap leader node; clients must fail over to the new
	// leader and committed data must survive.
	v.dep.Nodes[0].Endpoint().Kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, _, exists, err := v.client.GetPage(id, MaxLSN)
		if err == nil && exists && string(data[:3]) == "pre" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("get after leader failover: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// New writes continue.
	if _, err := v.client.AppendRedo([]plog.Record{{LSN: 2, Page: id, Off: 0, Data: []byte("post")}}); err != nil {
		t.Fatalf("append after failover: %v", err)
	}
}

func TestPartitionStable(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{PageChunks: 4})
	for i := 0; i < 100; i++ {
		id := types.PageID{Space: types.SpaceID(i % 3), No: types.PageNo(i)}
		p1 := v.client.Partition(id)
		p2 := v.client.Partition(id)
		if p1 != p2 || p1 < 0 || p1 >= 4 {
			t.Fatalf("partition unstable or out of range: %d %d", p1, p2)
		}
	}
}

// Property: for any sequence of writes to one page, GetPage@latest equals
// applying the writes in LSN order to a zero page — regardless of how the
// records are batched, and unchanged when a recovery redistribution ships
// a prefix of them again.
func TestPageReconstructionProperty(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{PageChunks: 1})
	var lsn types.LSN
	pageNo := types.PageNo(0)
	prop := func(writes []struct {
		Off  uint16
		Data []byte
	}, cutAt, reshipAt uint8) bool {
		pageNo++
		id := types.PageID{Space: 5, No: pageNo}
		expect := make([]byte, types.PageSize)
		var recs []plog.Record
		for _, w := range writes {
			off := int(w.Off) % types.PageSize
			data := w.Data
			if len(data) > types.PageSize-off {
				data = data[:types.PageSize-off]
			}
			lsn++
			copy(expect[off:], data)
			recs = append(recs, plog.Record{LSN: lsn, Page: id, Off: uint16(off), Data: data})
		}
		if len(recs) == 0 {
			return true
		}
		ship := func(batch []plog.Record) bool {
			return len(batch) == 0 || v.client.ShipRecords(batch, batch[len(batch)-1].LSN) == nil
		}
		// Ship in two batches.
		cut := int(cutAt) % (len(recs) + 1)
		if !ship(recs[:cut]) || !ship(recs[cut:]) {
			return false
		}
		got, _, _, err := v.client.GetPage(id, MaxLSN)
		if err != nil || !bytes.Equal(got, expect) {
			return false
		}
		// A recovery redistribution ships a prefix again: the page must not
		// change.
		if !ship(recs[:int(reshipAt)%(len(recs)+1)]) {
			return false
		}
		got, _, _, err = v.client.GetPage(id, MaxLSN)
		return err == nil && bytes.Equal(got, expect)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestErrPageTooOld(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{PageChunks: 1})
	id := types.PageID{Space: 1, No: 1}
	for i := types.LSN(1); i <= 3; i++ {
		if err := v.client.ShipRecords([]plog.Record{{LSN: i, Page: id, Off: 0, Data: []byte{byte(i)}}}, i); err != nil {
			t.Fatal(err)
		}
	}
	// Only the newest image is kept; requesting LSN 1 must fail.
	_, _, _, err := v.client.GetPage(id, 1)
	if !errors.Is(err, ErrPageTooOld) {
		t.Fatalf("err = %v, want ErrPageTooOld", err)
	}
}

func TestGetPageBeyondCoverage(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{PageChunks: 1})
	id := types.PageID{Space: 1, No: 1}
	if err := v.client.ShipRecords([]plog.Record{{LSN: 3, Page: id, Off: 0, Data: []byte("x")}}, 3); err != nil {
		t.Fatal(err)
	}
	// Reading at an LSN the chunk has not covered yet must be refused, not
	// silently served stale.
	if _, _, _, err := v.client.GetPage(id, 9); !errors.Is(err, ErrStaleLSN) {
		t.Fatalf("err = %v, want ErrStaleLSN", err)
	}
	// MaxLSN (latest known) is always servable.
	if _, _, _, err := v.client.GetPage(id, MaxLSN); err != nil {
		t.Fatal(err)
	}
}

func TestManyPagesAcrossPartitions(t *testing.T) {
	v := newTestVolume(t, VolumeConfig{PageChunks: 4})
	const n = 64
	var recs []plog.Record
	for i := 0; i < n; i++ {
		id := types.PageID{Space: 1, No: types.PageNo(i)}
		recs = append(recs, plog.Record{LSN: types.LSN(i + 1), Page: id, Off: 0,
			Data: []byte(fmt.Sprintf("page-%02d", i))})
	}
	if err := v.client.ShipRecords(recs, types.LSN(n)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := types.PageID{Space: 1, No: types.PageNo(i)}
		data, _, exists, err := v.client.GetPage(id, MaxLSN)
		if err != nil || !exists {
			t.Fatalf("page %d: exists=%v err=%v", i, exists, err)
		}
		want := fmt.Sprintf("page-%02d", i)
		if string(data[:len(want)]) != want {
			t.Fatalf("page %d = %q, want %q", i, data[:len(want)], want)
		}
	}
}

// TestAddNamesEachPageOnce: the ranges an add proposes name each page of
// its batch once, one range per run of adjacent pages, whatever the order
// and number of its records; and the conflicts between adds are what they
// were with one range per record.
func TestAddNamesEachPageOnce(t *testing.T) {
	a, b, far := types.PageID{Space: 3, No: 10}, types.PageID{Space: 3, No: 11}, types.PageID{Space: 3, No: 40}
	var recs []plog.Record
	for i := 0; i < 30; i++ {
		id := []types.PageID{far, a, b}[i%3]
		recs = append(recs, rec(types.LSN(i+1), id.Space, id.No, uint16(i*8), "x"))
	}
	got := pageRanges(batchOf(t, recs))
	want := []parallelraft.Range{{Start: a.Key(), End: b.Key() + 1}, {Start: far.Key(), End: far.Key() + 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("an add of 30 records on pages %s, %s, %s proposes %v, want %v", a, b, far, got, want)
	}

	conflict := func(x, y []parallelraft.Range) bool {
		for _, r := range x {
			for _, o := range y {
				if r.Start < o.End && o.Start < r.End {
					return true
				}
			}
		}
		return false
	}
	one := pageRanges(batchOf(t, []plog.Record{rec(1, 3, 10, 0, "p"), rec(2, 3, 12, 0, "q")}))
	other := pageRanges(batchOf(t, []plog.Record{rec(3, 3, 11, 0, "r"), rec(4, 4, 10, 0, "s")}))
	same := pageRanges(batchOf(t, []plog.Record{rec(5, 3, 12, 64, "t")}))
	if conflict(one, other) {
		t.Errorf("adds on disjoint pages conflict: %v and %v", one, other)
	}
	if !conflict(one, same) {
		t.Errorf("adds on page 3:12 do not conflict: %v and %v", one, same)
	}
}
