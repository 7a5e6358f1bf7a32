package rdma

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"polardb/internal/stat"
)

func newTestFabric(t *testing.T) *Fabric {
	t.Helper()
	return NewFabric(TestConfig())
}

func TestAttachDetach(t *testing.T) {
	f := newTestFabric(t)
	a, err := f.Attach("a")
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if a.ID() != "a" {
		t.Fatalf("id = %q, want a", a.ID())
	}
	if _, err := f.Attach("a"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("duplicate attach err = %v, want ErrDuplicateNode", err)
	}
	f.Detach("a")
	if _, err := f.Attach("a"); err != nil {
		t.Fatalf("re-attach after detach: %v", err)
	}
}

func TestOneSidedReadWrite(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	db := f.MustAttach("db")

	r := mem.RegisterRegion(4096)
	addr := Addr{Node: "mem", Region: r.ID(), Off: 128}

	src := []byte("hello remote memory")
	if err := db.Write(addr, src); err != nil {
		t.Fatalf("write: %v", err)
	}
	dst := make([]byte, len(src))
	if err := db.Read(addr, dst); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatalf("read back %q, want %q", dst, src)
	}
}

func TestReadOutOfBounds(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	db := f.MustAttach("db")
	r := mem.RegisterRegion(64)
	err := db.Read(Addr{Node: "mem", Region: r.ID(), Off: 60}, make([]byte, 16))
	if !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("err = %v, want ErrOutOfBounds", err)
	}
}

func TestNoSuchNodeAndRegion(t *testing.T) {
	f := newTestFabric(t)
	db := f.MustAttach("db")
	if err := db.Read(Addr{Node: "ghost"}, make([]byte, 1)); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
	f.MustAttach("mem")
	err := db.Read(Addr{Node: "mem", Region: 99}, make([]byte, 1))
	if !errors.Is(err, ErrNoSuchRegion) {
		t.Fatalf("err = %v, want ErrNoSuchRegion", err)
	}
}

func TestCAS64(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	db := f.MustAttach("db")
	r := mem.RegisterRegion(64)
	addr := Addr{Node: "mem", Region: r.ID(), Off: 8}

	prev, ok, err := db.CAS64(addr, 0, 42)
	if err != nil || !ok || prev != 0 {
		t.Fatalf("cas(0,42) = %d,%v,%v; want 0,true,nil", prev, ok, err)
	}
	prev, ok, err = db.CAS64(addr, 0, 7)
	if err != nil || ok || prev != 42 {
		t.Fatalf("cas(0,7) = %d,%v,%v; want 42,false,nil", prev, ok, err)
	}
	v, err := db.Load64(addr)
	if err != nil || v != 42 {
		t.Fatalf("load = %d,%v; want 42", v, err)
	}
}

func TestCASMisaligned(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	db := f.MustAttach("db")
	r := mem.RegisterRegion(64)
	_, _, err := db.CAS64(Addr{Node: "mem", Region: r.ID(), Off: 3}, 0, 1)
	if !errors.Is(err, ErrMisaligned) {
		t.Fatalf("err = %v, want ErrMisaligned", err)
	}
}

func TestFetchAdd64Concurrent(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	r := mem.RegisterRegion(64)
	addr := Addr{Node: "mem", Region: r.ID(), Off: 0}

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		ep := f.MustAttach(NodeID(rune('A' + i)))
		wg.Add(1)
		go func(ep *Endpoint) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if _, err := ep.FetchAdd64(addr, 1); err != nil {
					t.Errorf("fetchadd: %v", err)
					return
				}
			}
		}(ep)
	}
	wg.Wait()
	v, _ := r.Load64Local(0)
	if v != workers*perWorker {
		t.Fatalf("counter = %d, want %d", v, workers*perWorker)
	}
}

func TestRPC(t *testing.T) {
	f := newTestFabric(t)
	srv := f.MustAttach("srv")
	cli := f.MustAttach("cli")

	srv.RegisterHandler("echo", func(from NodeID, req []byte) ([]byte, error) {
		if from != "cli" {
			t.Errorf("from = %q, want cli", from)
		}
		return append([]byte("echo:"), req...), nil
	})
	resp, err := cli.Call("srv", "echo", []byte("hi"))
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp = %q", resp)
	}
	if _, err := cli.Call("srv", "nope", nil); !errors.Is(err, ErrNoSuchHandler) {
		t.Fatalf("err = %v, want ErrNoSuchHandler", err)
	}
}

func TestRPCHandlerError(t *testing.T) {
	f := newTestFabric(t)
	srv := f.MustAttach("srv")
	cli := f.MustAttach("cli")
	boom := errors.New("boom")
	srv.RegisterHandler("fail", func(NodeID, []byte) ([]byte, error) { return nil, boom })
	if _, err := cli.Call("srv", "fail", nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestKillRevive(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	db := f.MustAttach("db")
	r := mem.RegisterRegion(64)
	addr := Addr{Node: "mem", Region: r.ID(), Off: 0}

	if err := db.Write(addr, []byte{1}); err != nil {
		t.Fatalf("write before kill: %v", err)
	}
	mem.Kill()
	if err := db.Write(addr, []byte{2}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if _, err := db.Call("mem", "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("rpc err = %v, want ErrUnreachable", err)
	}
	mem.Revive()
	// Memory survives a kill/revive (warm restart).
	var b [1]byte
	if err := db.Read(addr, b[:]); err != nil || b[0] != 1 {
		t.Fatalf("read after revive = %v %v, want value 1", b, err)
	}
}

func TestCallTimeout(t *testing.T) {
	f := newTestFabric(t)
	srv := f.MustAttach("srv")
	cli := f.MustAttach("cli")
	block := make(chan struct{})
	srv.RegisterHandler("hang", func(NodeID, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	t.Cleanup(func() { close(block) })
	_, err := cli.CallTimeout("srv", "hang", nil, 10*time.Millisecond)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

// Every verb is counted exactly once, on the issuing node's registry.
func TestVerbMetricsCountOnIssuer(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	r := mem.RegisterRegion(1024)
	mem.RegisterHandler("echo", func(_ NodeID, req []byte) ([]byte, error) { return req, nil })
	addr := Addr{Node: "mem", Region: r.ID(), Off: 0}

	const n = 7
	before := f.Metrics().Snapshot()
	for _, id := range []NodeID{"db1", "db2"} {
		ep := f.MustAttach(id)
		for i := 0; i < n; i++ {
			if err := ep.Write(addr, make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
			if err := ep.Read(addr, make([]byte, 50)); err != nil {
				t.Fatal(err)
			}
			if _, err := ep.FetchAdd64(addr, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := ep.Call("mem", "echo", make([]byte, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := f.Metrics().Snapshot()
	d := stat.Total(after).Sub(stat.Total(before))
	for name, want := range map[string]uint64{
		"rdma.write.ops": 2 * n, "rdma.write.bytes": 2 * n * 100,
		"rdma.read.ops": 2 * n, "rdma.read.bytes": 2 * n * 50,
		"rdma.atomic.ops": 2 * n, "rdma.atomic.bytes": 2 * n * 8,
		"rdma.rpc.ops": 2 * n, "rdma.rpc.bytes": 2 * n * 20,
	} {
		if got := d.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, v := range after["mem"].Sub(before["mem"]).Counters {
		if v != 0 {
			t.Errorf("target registry counted %s = %d, want 0", name, v)
		}
	}
	if got := after["db1"].Counter("rdma.rpc.ops"); got != n {
		t.Errorf("db1 rdma.rpc.ops = %d, want %d", got, n)
	}
}

// Property: any byte slice written to any in-bounds offset reads back
// identically (write/read round trip through one-sided verbs).
func TestReadWriteRoundTripProperty(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	db := f.MustAttach("db")
	const size = 8192
	r := mem.RegisterRegion(size)

	prop := func(data []byte, off uint16) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		o := uint64(off) % (size - 1024)
		addr := Addr{Node: "mem", Region: r.ID(), Off: o}
		if err := db.Write(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := db.Read(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent CAS from many nodes never double-grants: exactly one
// winner per round of attempts on the same expected value.
func TestCASMutualExclusionProperty(t *testing.T) {
	f := newTestFabric(t)
	mem := f.MustAttach("mem")
	r := mem.RegisterRegion(64)
	addr := Addr{Node: "mem", Region: r.ID(), Off: 0}

	eps := make([]*Endpoint, 6)
	for i := range eps {
		eps[i] = f.MustAttach(NodeID(rune('a' + i)))
	}
	for round := uint64(0); round < 50; round++ {
		wins := make(chan int, len(eps))
		var wg sync.WaitGroup
		for i, ep := range eps {
			wg.Add(1)
			go func(i int, ep *Endpoint) {
				defer wg.Done()
				if _, ok, _ := ep.CAS64(addr, round, round+1); ok {
					wins <- i
				}
			}(i, ep)
		}
		wg.Wait()
		close(wins)
		n := 0
		for range wins {
			n++
		}
		if n != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, n)
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	cfg := Config{
		TimeScale:     1,
		OneSidedRead:  200 * time.Microsecond,
		OneSidedWrite: 200 * time.Microsecond,
		Atomic:        200 * time.Microsecond,
		RPC:           200 * time.Microsecond,
		PerKB:         time.Nanosecond,
		scaleSet:      true,
	}
	f := NewFabric(cfg)
	mem := f.MustAttach("mem")
	db := f.MustAttach("db")
	r := mem.RegisterRegion(64)
	addr := Addr{Node: "mem", Region: r.ID(), Off: 0}

	start := time.Now()
	const n = 5
	for i := 0; i < n; i++ {
		if err := db.Read(addr, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := time.Since(start); got < n*cfg.OneSidedRead {
		t.Fatalf("elapsed %v < %v: latency not injected", got, n*cfg.OneSidedRead)
	}
}
