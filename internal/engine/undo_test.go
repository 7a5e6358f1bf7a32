package engine

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"polardb/internal/txn"
	"polardb/internal/types"
)

// TestAppendUndoConcurrentCursor: concurrent appenders, each in its own
// MTR, roll the undo cursor over many pages. Their records must not
// overlap, and the header-page cursor must end up past the furthest
// record.
func TestAppendUndoConcurrentCursor(t *testing.T) {
	h := newHarness(t, harnessOpts{})
	e := h.rw

	const workers = 6
	const perWorker = 25
	// Large enough that the cursor rolls undo pages many times mid-test.
	payload := bytes.Repeat([]byte{0x5A}, types.PageSize/8)

	type ref struct {
		pg  types.PageNo
		off uint16
		n   int
	}
	refs := make([][]ref, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := txn.UndoRec{
					Trx:       types.TrxID(1000 + w),
					Space:     1,
					Key:       uint64(w*perWorker + i),
					Type:      txn.UndoUpdate,
					PrevBytes: payload,
				}
				mt := e.BeginMtr()
				pg, off, err := e.appendUndo(mt, &u)
				if err != nil {
					t.Errorf("worker %d: appendUndo: %v", w, err)
					_, _ = mt.Commit()
					return
				}
				if _, err := mt.Commit(); err != nil {
					t.Errorf("worker %d: mtr commit: %v", w, err)
					return
				}
				refs[w] = append(refs[w], ref{pg, off, u.EncodedSize()})
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var all []ref
	for _, rs := range refs {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pg != all[j].pg {
			return all[i].pg < all[j].pg
		}
		return all[i].off < all[j].off
	})
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.pg == b.pg && int(a.off)+a.n > int(b.off) {
			t.Errorf("undo records overlap: %d/%d+%d vs %d/%d", a.pg, a.off, a.n, b.pg, b.off)
		}
	}

	hdr, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unpin(hdr)
	cpg, coff := txn.UndoAlloc(hdr.Data)
	last := all[len(all)-1]
	if cpg < last.pg || (cpg == last.pg && int(coff) < int(last.off)+last.n) {
		t.Errorf("header cursor %d/%d is behind the furthest undo record %d/%d+%d",
			cpg, coff, last.pg, last.off, last.n)
	}
}
