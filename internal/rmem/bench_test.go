package rmem

import (
	"testing"

	"polardb/internal/rdma"
	"polardb/internal/types"
)

// Micro-benchmarks for the latch and registration paths (with the
// benchmark latency profile, so costs reflect the fabric model). These
// are the ablations behind §3.2/§4.1: the RDMA-CAS fast path vs the home
// negotiation slow path, and sticky re-acquisition vs fresh CAS.

func benchPool(b *testing.B) (*Pool, *Pool, rdma.Addr) {
	b.Helper()
	f := rdma.NewFabric(rdma.DefaultConfig())
	cfg := Config{}
	homeEP := f.MustAttach("home")
	NewSlabNode(homeEP)
	h := NewHome(homeEP, cfg, "")
	b.Cleanup(h.Close)
	if _, err := h.AddSlab("home", 256); err != nil {
		b.Fatal(err)
	}
	rw, err := NewPool(f.MustAttach("rw"), cfg, "home")
	if err != nil {
		b.Fatal(err)
	}
	ro, err := NewPool(f.MustAttach("ro"), cfg, "home")
	if err != nil {
		b.Fatal(err)
	}
	res, err := rw.Register(types.PageID{Space: 1, No: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ro.Register(types.PageID{Space: 1, No: 1}); err != nil {
		b.Fatal(err)
	}
	return rw, ro, res.PL
}

// BenchmarkPLXFastPath measures X latch acquire+release via RDMA CAS.
func BenchmarkPLXFastPath(b *testing.B) {
	rw, _, pl := benchPool(b)
	page := types.PageID{Space: 1, No: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rw.PL().LockX(page, pl); err != nil {
			b.Fatal(err)
		}
		if err := rw.PL().UnlockX(page, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPLXSticky measures re-acquisition of a sticky X latch (no
// network at all — the §3.2 stickiness optimization).
func BenchmarkPLXSticky(b *testing.B) {
	rw, _, pl := benchPool(b)
	page := types.PageID{Space: 1, No: 1}
	if err := rw.PL().LockX(page, pl); err != nil {
		b.Fatal(err)
	}
	if err := rw.PL().UnlockX(page, true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rw.PL().LockX(page, pl); err != nil {
			b.Fatal(err)
		}
		if err := rw.PL().UnlockX(page, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPLSRevocation measures the slow path: an RO S latch that must
// revoke the RW's sticky X latch through the home node each iteration.
func BenchmarkPLSRevocation(b *testing.B) {
	rw, ro, pl := benchPool(b)
	page := types.PageID{Space: 1, No: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rw.PL().LockX(page, pl); err != nil {
			b.Fatal(err)
		}
		if err := rw.PL().UnlockX(page, true); err != nil { // sticky
			b.Fatal(err)
		}
		if err := ro.PL().LockS(page, pl); err != nil { // forces revocation
			b.Fatal(err)
		}
		if err := ro.PL().UnlockS(page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRegister measures page_register round trips (hit path).
func BenchmarkPageRegister(b *testing.B) {
	rw, _, _ := benchPool(b)
	page := types.PageID{Space: 1, No: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rw.Register(page); err != nil {
			b.Fatal(err)
		}
		if err := rw.Unregister(page); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageReadRemote measures a one-sided 4 KiB page read.
func BenchmarkPageReadRemote(b *testing.B) {
	rw, _, _ := benchPool(b)
	res, err := rw.Register(types.PageID{Space: 1, No: 2})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, types.PageSize)
	if err := rw.WritePage(res.Data, buf, res.PIB); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(types.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rw.ReadPage(res.Data, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvalidateFanOut measures page_invalidate with one RO holder —
// the per-MTR coherency cost of the disaggregated design (§3.1.4).
func BenchmarkInvalidateFanOut(b *testing.B) {
	rw, _, _ := benchPool(b)
	pages := []types.PageID{{Space: 1, No: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rw.InvalidateBatch(pages); err != nil {
			b.Fatal(err)
		}
	}
}
