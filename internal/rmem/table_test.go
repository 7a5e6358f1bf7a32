package rmem

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"polardb/internal/rdma"
	"polardb/internal/types"
)

// tableDiff names the first difference between two home tables, "" if
// there is none. LRU order is policy the slave never acts on before it is
// promoted, so only LRU membership is compared.
func tableDiff(a, b *homeTable) string {
	if !slices.Equal(a.nodes, b.nodes) {
		return fmt.Sprintf("node indexes %v vs %v", a.nodes, b.nodes)
	}
	if len(a.nodeIdx) != len(b.nodeIdx) {
		return fmt.Sprintf("%d vs %d indexed nodes", len(a.nodeIdx), len(b.nodeIdx))
	}
	if len(a.slabList) != len(b.slabList) || len(a.slabs) != len(b.slabs) {
		return fmt.Sprintf("%d/%d vs %d/%d slabs", len(a.slabList), len(a.slabs), len(b.slabList), len(b.slabs))
	}
	for i, sa := range a.slabList {
		sb := b.slabList[i]
		if sa.key != sb.key || sa.pages != sb.pages || !slices.Equal(sa.free, sb.free) {
			return fmt.Sprintf("slab %d: %v %d free %v vs %v %d free %v", i, sa.key, sa.pages, sa.free, sb.key, sb.pages, sb.free)
		}
	}
	if !slices.Equal(a.metaFree, b.metaFree) {
		return fmt.Sprintf("meta-slot free lists differ (%d vs %d slots)", len(a.metaFree), len(b.metaFree))
	}
	if len(a.pat) != len(b.pat) || a.lru.Len() != b.lru.Len() {
		return fmt.Sprintf("%d pages (%d unreferenced) vs %d (%d)", len(a.pat), a.lru.Len(), len(b.pat), b.lru.Len())
	}
	for k, ea := range a.pat {
		eb, ok := b.pat[k]
		if !ok {
			return fmt.Sprintf("page %s only on one side", ea.page)
		}
		refsEqual := len(ea.refs) == len(eb.refs)
		for n := range ea.refs {
			refsEqual = refsEqual && eb.refs[n]
		}
		if ea.slab != eb.slab || ea.slot != eb.slot || ea.slotOff != eb.slotOff || !refsEqual ||
			(ea.lruElem == nil) != (eb.lruElem == nil) ||
			ea.moving != eb.moving || ea.dst != eb.dst || ea.dstSlot != eb.dstSlot {
			return fmt.Sprintf("page %s: %+v vs %+v", ea.page, *ea, *eb)
		}
	}
	return ""
}

// TestMasterSlaveTablesStayEqual drives a master and its slave through
// seeded random sequences of every call that changes home metadata and
// checks after each one that the slave's table equals the master's: the
// slave applies the master's ops, it re-decides nothing. Unrefs reach the
// master in batches (a full queue, a Flush, a register that found the pool
// full); the slave must follow a batch like any single op.
func TestMasterSlaveTablesStayEqual(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { driveTablePair(t, seed, 400) })
	}
}

func driveTablePair(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	fabric := rdma.NewFabric(rdma.TestConfig())
	cfg := Config{InvalidateTimeout: 200 * time.Millisecond, LatchTimeout: time.Second}
	masterEP := fabric.MustAttach("home")
	slave := NewSlaveHome(fabric.MustAttach("home2"), cfg)
	defer slave.Close()
	master := NewHome(masterEP, cfg, "home2")
	defer master.Close()
	slabNodes := []rdma.NodeID{"home", "slab1", "slab2"}
	NewSlabNode(masterEP, cfg)
	NewSlabNode(fabric.MustAttach("slab1"), cfg)
	NewSlabNode(fabric.MustAttach("slab2"), cfg)

	var clients []*Pool
	held := map[*Pool]map[types.PageID]bool{}
	hello := func() string {
		id := rdma.NodeID(fmt.Sprintf("db%d", len(clients)))
		p, err := NewPool(fabric.MustAttach(id), cfg, "home")
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, p)
		held[p] = map[types.PageID]bool{}
		return "hello " + string(id)
	}
	addSlab := func() string {
		node := slabNodes[rng.Intn(len(slabNodes))]
		if _, err := master.AddSlab(node, 2+rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
		return "AddSlab " + string(node)
	}
	step := func() string {
		if len(clients) == 0 || (len(clients) < 4 && rng.Intn(20) == 0) {
			return hello()
		}
		c := clients[rng.Intn(len(clients))]
		page := pid(uint32(rng.Intn(24)))
		switch r := rng.Intn(100); {
		case r < 40: // evicts the LRU page once the pool is full
			if _, err := c.Register(page); err == nil {
				held[c][page] = true
			} else if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("register: %v", err)
			}
			return fmt.Sprintf("register %s", page)
		case r < 45:
			if res, err := c.RegisterIfCached(page); err != nil {
				t.Fatal(err)
			} else if res.Exists {
				held[c][page] = true
			}
			return fmt.Sprintf("register-if-cached %s", page)
		case r < 66: // queued in the node's librmem; every 16th sends a batch of unrefs
			for pg := range held[c] {
				page = pg
				break
			}
			if err := c.Unregister(page); err != nil {
				t.Fatal(err)
			}
			delete(held[c], page)
			return fmt.Sprintf("unregister %s", page)
		case r < 70:
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			return "flush " + string(c.ep.ID())
		case r < 78:
			if err := c.InvalidateBatch([]types.PageID{page, pid(uint32(rng.Intn(24)))}); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("invalidate %s+1", page)
		case r < 84:
			if master.Stats().Slabs < 5 {
				return addSlab()
			}
			fallthrough
		case r < 90: // referenced pages migrate
			target := rng.Intn(master.TotalSlots() + 1)
			if _, err := master.Shrink(target); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("Shrink %d", target)
		case r < 93:
			node := slabNodes[rng.Intn(len(slabNodes))]
			master.HandleSlabFailure(node)
			return "HandleSlabFailure " + string(node)
		case r < 97:
			master.DropNodeRefs(c.ep.ID())
			held[c] = map[types.PageID]bool{}
			return "kick " + string(c.ep.ID())
		default:
			master.ForceEvict(page)
			return fmt.Sprintf("ForceEvict %s", page)
		}
	}

	addSlab()
	addSlab()
	for i := 0; i < steps; i++ {
		if master.TotalSlots() == 0 {
			addSlab()
		}
		what := step()
		master.flushReplication()
		master.mu.Lock()
		slave.mu.Lock()
		diff := tableDiff(&master.tab, &slave.tab)
		slave.mu.Unlock()
		master.mu.Unlock()
		if diff != "" {
			t.Fatalf("seed %d step %d (%s): master vs slave: %s", seed, i, what, diff)
		}
	}
}
