package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/types"
)

func TestRecordRoundTrip(t *testing.T) {
	in := Record{
		Trx:       42,
		CTS:       7,
		UndoPage:  9,
		UndoOff:   1234,
		Tombstone: true,
		Payload:   []byte("hello"),
	}
	out, err := UnmarshalRecord(in.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if out.Trx != in.Trx || out.CTS != in.CTS || out.UndoPage != in.UndoPage ||
		out.UndoOff != in.UndoOff || out.Tombstone != in.Tombstone ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestRecordTooShort(t *testing.T) {
	if _, err := UnmarshalRecord(make([]byte, 3)); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v", err)
	}
}

func TestSetCTSInPlace(t *testing.T) {
	r := Record{Trx: 1, Payload: []byte("x")}
	buf := r.Marshal()
	binary.LittleEndian.PutUint64(buf[CTSFieldOffset:], 99)
	out, _ := UnmarshalRecord(buf)
	if out.CTS != 99 {
		t.Fatalf("cts = %d", out.CTS)
	}
}

func TestUndoRoundTrip(t *testing.T) {
	in := UndoRec{
		Trx:        5,
		Space:      3,
		Key:        777,
		Type:       UndoUpdate,
		PrevTxnPg:  2,
		PrevTxnOff: 96,
		PrevBytes:  []byte("previous version bytes"),
	}
	page := make([]byte, types.PageSize)
	enc := in.Marshal()
	copy(page[100:], enc)
	out, err := UnmarshalUndo(page, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trx != in.Trx || out.Space != in.Space || out.Key != in.Key ||
		out.Type != in.Type || out.PrevTxnPg != in.PrevTxnPg ||
		out.PrevTxnOff != in.PrevTxnOff || !bytes.Equal(out.PrevBytes, in.PrevBytes) {
		t.Fatalf("round trip: %+v", out)
	}
	if in.EncodedSize() != len(enc) {
		t.Fatalf("EncodedSize %d != %d", in.EncodedSize(), len(enc))
	}
}

func TestUndoCorrupt(t *testing.T) {
	page := make([]byte, 64)
	if _, err := UnmarshalUndo(page, 60); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v", err)
	}
	// A zeroed slot (an undo page older than its pointer) is an error, not
	// an update record with an empty previous version.
	if _, err := UnmarshalUndo(page, 8); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("zeroed record: err = %v", err)
	}
}

// Property: record and undo encodings round-trip arbitrary payloads.
func TestEncodingProperty(t *testing.T) {
	prop := func(trx, cts uint64, pg uint32, off uint16, tomb bool, payload []byte) bool {
		r := Record{
			Trx: types.TrxID(trx), CTS: types.Timestamp(cts),
			UndoPage: types.PageNo(pg), UndoOff: off, Tombstone: tomb, Payload: payload,
		}
		out, err := UnmarshalRecord(r.Marshal())
		return err == nil && out.Trx == r.Trx && out.CTS == r.CTS &&
			out.Tombstone == tomb && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func newCTSPair(t *testing.T) (*Service, *Client) {
	t.Helper()
	f := rdma.NewFabric(rdma.TestConfig())
	rw := f.MustAttach("rw")
	ro := f.MustAttach("ro")
	region := rw.RegisterRegion(RegionSize(64))
	svc := NewService(region, 64)
	cli := NewClient(ro, "rw", region.ID(), 64)
	return svc, cli
}

func TestCTSMonotonic(t *testing.T) {
	svc, cli := newCTSPair(t)
	a := svc.NextTS()
	b := svc.NextTS()
	if b <= a {
		t.Fatalf("timestamps not monotonic: %d then %d", a, b)
	}
	svc.PublishView(nil)
	remote, _, err := cli.ReadView()
	if err != nil {
		t.Fatal(err)
	}
	if remote.ReadTS != b+1 {
		t.Fatalf("remote cts_read = %d, want %d", remote.ReadTS, b+1)
	}
	c, err := cli.NextTS()
	if err != nil || c != b+1 {
		t.Fatalf("remote FAA = %d, %v", c, err)
	}
	if svc.CurrentTS() != c {
		t.Fatalf("current = %d, want %d", svc.CurrentTS(), c)
	}
}

func TestCTSConcurrentUnique(t *testing.T) {
	svc, _ := newCTSPair(t)
	const workers, per = 8, 200
	ch := make(chan types.Timestamp, workers*per)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				ch <- svc.NextTS()
			}
		}()
	}
	wg.Wait()
	close(ch)
	seen := map[types.Timestamp]bool{}
	for ts := range ch {
		if seen[ts] {
			t.Fatalf("duplicate timestamp %d", ts)
		}
		seen[ts] = true
	}
}

func TestCTSLogLifecycle(t *testing.T) {
	svc, cli := newCTSPair(t)
	trx := types.TrxID(7)
	if !svc.BeginInLog(trx) {
		t.Fatal("begin rejected")
	}
	// Active: known, cts 0 — locally and via one-sided remote read.
	if cts, known := svc.Lookup(trx); !known || cts != 0 {
		t.Fatalf("active lookup = %d,%v", cts, known)
	}
	if cts, known, err := cli.Lookup(trx); err != nil || !known || cts != 0 {
		t.Fatalf("remote active lookup = %d,%v,%v", cts, known, err)
	}
	svc.RecordCommit(trx, 55)
	if cts, known, err := cli.Lookup(trx); err != nil || !known || cts != 55 {
		t.Fatalf("remote committed lookup = %d,%v,%v", cts, known, err)
	}
	// Slot reuse by a colliding id (7 + 64): unknown for the old trx.
	if !svc.BeginInLog(trx + 64) {
		t.Fatal("reuse of committed slot rejected")
	}
	if _, known := svc.Lookup(trx); known {
		t.Fatal("stale trx still known after slot reuse")
	}
	// An uncommitted holder blocks colliding begins.
	if svc.BeginInLog(trx + 128) {
		t.Fatal("begin over an active colliding slot succeeded")
	}
}

// TestAbortedTxnStaysInvisible: a record of a rolled-back transaction that
// a reader still holds must not resolve to "slot reused, so it committed
// long ago" for a view that does not list the transaction.
func TestAbortedTxnStaysInvisible(t *testing.T) {
	svc, cli := newCTSPair(t)
	svc.BeginInLog(7)
	svc.RecordAbort(7)
	view := NewReadView(1<<40, 0, nil)
	vis, err := view.Judge(&Record{Trx: 7}, cli.Lookup)
	if err != nil || vis != Invisible {
		t.Fatalf("record of an aborted transaction: %v %v, want Invisible", vis, err)
	}
	if !svc.BeginInLog(7 + 64) {
		t.Fatal("slot of an aborted transaction is not reusable")
	}
}

func TestPublishLSN(t *testing.T) {
	svc, cli := newCTSPair(t)
	svc.PublishLSN(12345)
	v, err := cli.ReadLSN()
	if err != nil || v != 12345 {
		t.Fatalf("read lsn = %d, %v", v, err)
	}
}

// activeOf lists a view's in-flight transactions in ascending order.
func activeOf(v *ReadView) []types.TrxID {
	var ids []types.TrxID
	for id := range v.Active {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestViewRoundTrip: an unpublished region is an error, never an empty
// view; a published one comes back as timestamp+1, the list and the LSN in
// one read.
func TestViewRoundTrip(t *testing.T) {
	svc, cli := newCTSPair(t)
	if _, _, err := cli.ReadView(); !errors.Is(err, ErrViewUnpublished) {
		t.Fatalf("view of an unpublished region: err = %v, want ErrViewUnpublished", err)
	}
	svc.SetCounter(41)
	svc.PublishLSN(777)
	full := make([]types.TrxID, SlotCount())
	for i := range full {
		full[i] = types.TrxID(1000 + i)
	}
	for _, active := range [][]types.TrxID{nil, {9}, full, {3, 4}} {
		svc.NextTS()
		svc.PublishView(active)
		reads := cli.ep.Metrics().Snapshot()
		v, lsn, err := cli.ReadView()
		if err != nil {
			t.Fatal(err)
		}
		d := cli.ep.Metrics().Snapshot().Sub(reads)
		if n, ts := d.Counter("rdma.read.ops"), d.Counter("txn.cts.read_ts.ops"); n != 1 || ts != 1 {
			t.Fatalf("view cost %d reads (%d counted as cts_read), want 1 and 1", n, ts)
		}
		if v.ReadTS != svc.CurrentTS()+1 || lsn != 777 || !slices.Equal(activeOf(v), active) {
			t.Fatalf("view = %+v at lsn %d, want cts_read %d, lsn 777, active %v", v, lsn, svc.CurrentTS()+1, active)
		}
	}
	// The timestamp is the one at the last publish, not the counter's.
	svc.NextTS()
	if v, _, _ := cli.ReadView(); v.ReadTS != svc.CurrentTS() {
		t.Fatalf("cts_read %d moved with the counter (%d) without a publish", v.ReadTS, svc.CurrentTS())
	}
}

// TestViewTornBlockIsNeverReturned: a block whose two version words
// disagree — what a reader gets when its READ overlaps a publish on a NIC
// that is not atomic across cache lines — is read again, a bounded number
// of times, and then reported; it is never decoded.
func TestViewTornBlockIsNeverReturned(t *testing.T) {
	svc, cli := newCTSPair(t)
	svc.PublishView([]types.TrxID{5})
	// Tear it by hand the way a publisher caught between its first and last
	// store leaves it: new tail, half-new body, old head.
	svc.region.MustStore64Local(viewTailOff, 2)
	svc.region.MustStore64Local(viewCountOff, 2)
	before := cli.ep.Metrics().Snapshot()
	if v, _, err := cli.ReadView(); !errors.Is(err, ErrViewTorn) {
		t.Fatalf("torn block: view %+v, err %v, want ErrViewTorn", v, err)
	}
	if n := cli.ep.Metrics().Snapshot().Sub(before).Counter("txn.cts.read_ts.ops"); n != viewReadRetries {
		t.Fatalf("torn block read %d times, want %d", n, viewReadRetries)
	}
	// The publisher gets to its last store: the next read succeeds.
	svc.region.MustStore64Local(viewIDsOff+8, 6)
	svc.region.MustStore64Local(viewHeadOff, 2)
	v, _, err := cli.ReadView()
	if err != nil || !slices.Equal(activeOf(v), []types.TrxID{5, 6}) {
		t.Fatalf("after the publish completed: view %+v, err %v", v, err)
	}
}

// TestViewConsistentUnderRepublishing: readers racing a publisher only
// ever see a (timestamp, list) pair that one publish wrote.
func TestViewConsistentUnderRepublishing(t *testing.T) {
	svc, cli := newCTSPair(t)
	svc.PublishView(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The publish at timestamp ts lists ts%7 transactions, ids 8*ts+i.
		for {
			select {
			case <-stop:
				return
			default:
			}
			ts := svc.NextTS()
			active := make([]types.TrxID, int(ts)%7)
			for i := range active {
				active[i] = types.TrxID(8*int(ts) + i)
			}
			svc.PublishView(active)
		}
	}()
	for i := 0; i < 20000; i++ {
		v, _, err := cli.ReadView()
		if errors.Is(err, ErrViewTorn) {
			continue // bounded retries may run out against a publisher that never pauses
		}
		if err != nil {
			t.Fatal(err)
		}
		ts := v.ReadTS - 1
		if ts == 1 {
			continue // the initial empty view
		}
		if len(v.Active) != int(ts)%7 {
			t.Fatalf("view at %d lists %d transactions, its publish wrote %d", ts, len(v.Active), int(ts)%7)
		}
		for id := range v.Active {
			if id/8 != types.TrxID(ts) {
				t.Fatalf("view at %d lists %v: ids of another publish", ts, activeOf(v))
			}
		}
	}
	close(stop)
	wg.Wait()
}

func judgeWith(t *testing.T, v *ReadView, rec Record, svc *Service) Visibility {
	t.Helper()
	vis, err := v.Judge(&rec, func(trx types.TrxID) (types.Timestamp, bool, error) {
		cts, known := svc.Lookup(trx)
		return cts, known, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return vis
}

func TestVisibilityRules(t *testing.T) {
	svc, _ := newCTSPair(t)
	view := NewReadView(100, 50, []types.TrxID{60, 50})

	// Own write always visible.
	if v := judgeWith(t, view, Record{Trx: 50}, svc); v != VisibleOwn {
		t.Fatalf("own = %v", v)
	}
	// Active at view creation: invisible even with a (later) commit ts.
	if v := judgeWith(t, view, Record{Trx: 60, CTS: 40}, svc); v != Invisible {
		t.Fatalf("active = %v", v)
	}
	// Backfilled cts below / above readTS.
	if v := judgeWith(t, view, Record{Trx: 10, CTS: 99}, svc); v != Visible {
		t.Fatalf("cts 99 = %v", v)
	}
	if v := judgeWith(t, view, Record{Trx: 10, CTS: 100}, svc); v != Invisible {
		t.Fatalf("cts 100 = %v", v)
	}
	// Unfilled cts, CTS log committed below readTS.
	svc.BeginInLog(20)
	svc.RecordCommit(20, 70)
	if v := judgeWith(t, view, Record{Trx: 20}, svc); v != Visible {
		t.Fatalf("log committed = %v", v)
	}
	// Unfilled cts, CTS log says still running.
	svc.BeginInLog(21)
	if v := judgeWith(t, view, Record{Trx: 21}, svc); v != Invisible {
		t.Fatalf("log active = %v", v)
	}
	// Unfilled cts, slot evicted (ancient committed txn): visible.
	if v := judgeWith(t, view, Record{Trx: 5}, svc); v != Visible {
		t.Fatalf("evicted = %v", v)
	}
}

func TestLockTableBasic(t *testing.T) {
	lt := NewLockTable(100 * time.Millisecond)
	if err := lt.Lock(1, 1, 10); err != nil {
		t.Fatal(err)
	}
	// Re-entrant.
	if err := lt.Lock(1, 1, 10); err != nil {
		t.Fatal(err)
	}
	// Contender times out.
	if err := lt.Lock(2, 1, 10); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v", err)
	}
	lt.ReleaseAll(1, []LockRef{{1, 10}})
	if err := lt.Lock(2, 1, 10); err != nil {
		t.Fatalf("after release: %v", err)
	}
	lt.ReleaseAll(2, []LockRef{{1, 10}})
	if lt.Held() != 0 {
		t.Fatalf("held = %d", lt.Held())
	}
}

func TestLockHandoffWakesWaiter(t *testing.T) {
	lt := NewLockTable(2 * time.Second)
	if err := lt.Lock(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lt.Lock(2, 1, 5) }()
	time.Sleep(20 * time.Millisecond)
	lt.ReleaseAll(1, []LockRef{{1, 5}})
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiter: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken")
	}
}

func TestLockDifferentKeysIndependent(t *testing.T) {
	lt := NewLockTable(50 * time.Millisecond)
	if err := lt.Lock(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := lt.Lock(2, 1, 6); err != nil {
		t.Fatal(err)
	}
	if err := lt.Lock(2, 2, 5); err != nil { // same key, other space
		t.Fatal(err)
	}
}

func TestLockContentionStress(t *testing.T) {
	lt := NewLockTable(5 * time.Second)
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(trx types.TrxID) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := lt.Lock(trx, 1, 1); err != nil {
					t.Errorf("lock: %v", err)
					return
				}
				counter++ // protected by the row lock
				lt.ReleaseAll(trx, []LockRef{{1, 1}})
			}
		}(types.TrxID(w + 1))
	}
	wg.Wait()
	if counter != 800 {
		t.Fatalf("counter = %d (row lock did not exclude)", counter)
	}
}

func TestTxnSlotRoundTrip(t *testing.T) {
	page := make([]byte, types.PageSize)
	s := TxnSlot{Trx: 99, State: SlotActive, LastUndoPage: 7, LastUndoOff: 321}
	copy(page[SlotOffset(3):], s.Marshal())
	out := UnmarshalSlot(page, 3)
	if out != s {
		t.Fatalf("round trip: %+v", out)
	}
	unfinished := ScanUnfinished(page)
	if u, ok := unfinished[3]; len(unfinished) != 1 || !ok || u.Trx != 99 {
		t.Fatalf("unfinished = %+v, want trx 99 at slot 3", unfinished)
	}
	if MaxTrxID(page) != 99 {
		t.Fatalf("max trx = %d", MaxTrxID(page))
	}
	// Committed slots are not "unfinished".
	s.State = SlotCommitted
	copy(page[SlotOffset(3):], s.Marshal())
	if got := ScanUnfinished(page); len(got) != 0 {
		t.Fatalf("committed counted as unfinished: %+v", got)
	}
}

func TestUndoAllocCursor(t *testing.T) {
	page := make([]byte, types.PageSize)
	copy(page[UndoAllocOffset:], MarshalUndoAlloc(5, 1000))
	pg, off := UndoAlloc(page)
	if pg != 5 || off != 1000 {
		t.Fatalf("cursor = %d,%d", pg, off)
	}
}

func TestSlotCountSane(t *testing.T) {
	if SlotCount() < 100 {
		t.Fatalf("slot count = %d, too small", SlotCount())
	}
	if SlotOffset(SlotCount()-1)+slotBytes > types.PageSize {
		t.Fatal("last slot exceeds page")
	}
}
