// Failover: crash the RW node mid-workload and watch the cluster manager
// promote a read replica (§5.1). Because the hot working set lives in the
// shared remote memory pool — not in the dead node's RAM — the new RW
// starts warm, which is the paper's 5.3x recovery headline.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"polardb/pkg/polar"
)

func main() {
	db, err := polar.Open(polar.Options{
		ReadReplicas:      2,
		MemorySlabs:       8,
		LocalCachePages:   64,                    // small local tier: hot pages live in the pool
		HeartbeatInterval: 20 * time.Millisecond, // CM heartbeat (paper: 1 Hz)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("kv"); err != nil {
		log.Fatal(err)
	}

	s := db.Session()
	defer s.Close()
	for k := uint64(0); k < 500; k++ {
		if err := s.Exec("kv", polar.OpPut, k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			log.Fatal(err)
		}
	}
	// Leave an uncommitted transaction hanging: it must be rolled back.
	dirty := db.Session()
	if err := dirty.Begin(); err != nil {
		log.Fatal(err)
	}
	if err := dirty.Exec("kv", polar.OpUpdate, 7, []byte("UNCOMMITTED")); err != nil {
		log.Fatal(err)
	}

	fmt.Println("crashing the RW node...")
	start := time.Now()
	db.Cluster().Proxy.RWNodeKill()

	// The session keeps working: autocommit ops transparently retry while
	// the CM detects the failure and promotes a replica.
	if err := s.Exec("kv", polar.OpPut, 9999, []byte("written-after-crash")); err != nil {
		log.Fatalf("write after crash: %v", err)
	}
	fmt.Printf("first write served %v after the crash (detection + promotion + recovery)\n",
		time.Since(start).Round(time.Millisecond))

	// Committed data survived; the uncommitted update did not.
	v, ok, err := s.Get("kv", 7)
	if err != nil || !ok {
		log.Fatalf("get: %v %v", ok, err)
	}
	fmt.Printf("key 7 after failover: %q (uncommitted update rolled back)\n", v)

	// The dirty session's transaction is reported lost, as it must be.
	err = dirty.Exec("kv", polar.OpPut, 8, []byte("x"))
	if errors.Is(err, polar.ErrTxnLost) {
		fmt.Println("open transaction correctly reported lost:", err)
	} else {
		log.Fatalf("expected ErrTxnLost, got %v", err)
	}
	dirty.Close()

	// Read the working set again: the shared remote memory pool survived
	// the crash, so pages come from remote memory, not storage.
	c := db.Cluster()
	c.RW.Engine.Cache().EvictAll() // start every local tier cold
	for _, ro := range c.ROs {
		ro.Engine.Cache().EvictAll()
	}
	before := db.Stats()
	for k := uint64(0); k < 200; k++ {
		if _, _, err := s.Get("kv", k); err != nil {
			log.Fatal(err)
		}
	}
	after := db.Stats()
	fmt.Printf("warm restart: %d page reads served by the surviving remote memory pool, %d by storage\n",
		after.RemoteReads-before.RemoteReads, after.StorageReads-before.StorageReads)
}
