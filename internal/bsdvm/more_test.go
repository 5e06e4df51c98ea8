package bsdvm

import (
	"errors"
	"testing"

	"uvm/internal/param"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Additional coverage for BSD VM internals: collapse/bypass corners, the
// swap pager's block behaviour, configuration knobs, and map edge cases.

func TestCollapseBypass(t *testing.T) {
	// Build a chain where the middle shadow contributes nothing to the
	// top object's window: parent writes page A pre-fork; after two forks
	// and selective writes the bypass path gets exercised.
	s, m := bootTest(t, 512)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.TouchRange(va, 4*param.PageSize, true)

	// Two generations of fork + parent writes build multi-level chains
	// with shared middles.
	c1, _ := p.Fork("c1")
	p.TouchRange(va, 4*param.PageSize, true)
	c2, _ := p.Fork("c2")
	p.TouchRange(va, 4*param.PageSize, true)

	// Children still read their snapshots correctly.
	b := make([]byte, 1)
	if err := c1.ReadBytes(va, b); err != nil {
		t.Fatal(err)
	}
	if err := c2.ReadBytes(va, b); err != nil {
		t.Fatal(err)
	}
	c1.Exit()
	c2.Exit()
	// After the children die, further parent activity collapses the
	// chain back to something short.
	p.TouchRange(va, 4*param.PageSize, true)
	s.big.Lock()
	objs, _, _ := chainStats(p.m.Lookup(va))
	s.big.Unlock()
	if objs > 3 {
		t.Fatalf("chain not collapsed after children exited: %d objects", objs)
	}
	if m.Stats.Get("bsdvm.collapse.merged")+m.Stats.Get("bsdvm.collapse.bypassed") == 0 {
		t.Fatal("no collapse activity at all")
	}
}

func TestSwapPagerBlockGranularity(t *testing.T) {
	// BSD VM allocates swap in fixed blocks: paging one page out reserves
	// a whole block of contiguous slots (§5.3's space behaviour).
	s, m := bootTest(t, 32)
	p := newProc(t, s, "p")
	const pages = 64
	va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	slots := m.Swap.SlotsInUse()
	outs := m.Stats.Get("vm.pageouts")
	if outs == 0 {
		t.Fatal("no pageout")
	}
	if slots%swapBlockPages != 0 {
		t.Fatalf("swap held in %d slots, not a multiple of the %d-slot block", slots, swapBlockPages)
	}
	if int64(slots) < outs {
		t.Fatalf("slots (%d) < pages paged (%d)?", slots, outs)
	}
}

func TestDisableObjCache(t *testing.T) {
	m := testMachine(512)
	cfg := DefaultConfig()
	cfg.DisableObjCache = true
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	vn := mkfile(t, m, "/nc", 2, 1)
	p, _ := s.NewProcess("p")
	va, _ := p.Mmap(0, 2*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	p.TouchRange(va, 2*param.PageSize, false)
	p.Munmap(va, 2*param.PageSize)
	if s.objCacheSize() != 0 {
		t.Fatal("object cached despite DisableObjCache")
	}
	// Remapping re-reads the disk (no cache).
	reads := m.Stats.Get("disk.reads")
	va2, _ := p.Mmap(0, 2*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
	p.TouchRange(va2, 2*param.PageSize, false)
	if m.Stats.Get("disk.reads") == reads {
		t.Fatal("pages survived with the cache disabled")
	}
	vn.Unref()
}

func TestKernelEntryPoolExhaustionPanics(t *testing.T) {
	// §3.2: "if this pool is exhausted the system will panic".
	m := testMachine(256)
	cfg := DefaultConfig()
	cfg.KernelEntryPool = 6 // 3 boot segments + a little
	defer func() {
		if recover() == nil {
			t.Error("expected kernel entry pool panic")
		}
	}()
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	for i := 0; i < 10; i++ {
		if _, err := s.KernelAlloc(1, param.ProtRW); err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestMprotectRespectsMaxProt(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	s.big.Lock()
	e := p.m.Lookup(va)
	e.maxProt = param.ProtRead | param.ProtWrite
	s.big.Unlock()
	if err := p.Mprotect(va, param.PageSize, param.ProtRWX); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("protection beyond maxProt allowed: %v", err)
	}
}

func TestMadviseStored(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := p.Madvise(va, 4*param.PageSize, param.AdviceSequential); err != nil {
		t.Fatal(err)
	}
	s.big.Lock()
	adv := p.m.Lookup(va).advice
	s.big.Unlock()
	if adv != param.AdviceSequential {
		t.Fatalf("advice = %v", adv)
	}
}

func TestAddressSpaceExhaustion(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	// A mapping bigger than the whole user address space must fail
	// cleanly.
	if _, err := p.Mmap(0, param.VSize(param.UserMax), param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0); !errors.Is(err, vmapi.ErrNoSpace) {
		t.Fatalf("oversized mapping: %v", err)
	}
}

func TestFixedMappingBeyondUserSpaceRejected(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	if _, err := p.Mmap(param.UserMax, param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate|vmapi.MapFixed, nil, 0); !errors.Is(err, vmapi.ErrInvalid) {
		t.Fatalf("fixed mapping into the PT region: %v", err)
	}
}

func TestChainStatsAccounting(t *testing.T) {
	s, _ := bootTest(t, 512)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, 3*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.TouchRange(va, 3*param.PageSize, true)

	s.big.Lock()
	objs, total, reachable := chainStats(p.m.Lookup(va))
	s.big.Unlock()
	if objs != 1 || total != 3 || reachable != 3 {
		t.Fatalf("flat object stats: objs=%d total=%d reachable=%d", objs, total, reachable)
	}

	// Fork and overwrite one page: the chain holds 4 pages, 3 reachable
	// from the parent entry.
	c, _ := p.Fork("c")
	p.WriteBytes(va, []byte{9})
	s.big.Lock()
	objs, total, reachable = chainStats(p.m.Lookup(va))
	s.big.Unlock()
	if objs != 2 {
		t.Fatalf("objs = %d after fork+write", objs)
	}
	if total != 4 || reachable != 3 {
		t.Fatalf("total=%d reachable=%d, want 4/3", total, reachable)
	}
	c.Exit()
}

func TestMsyncOnlyFileMappings(t *testing.T) {
	s, _ := bootTest(t, 256)
	p := newProc(t, s, "p")
	va, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	p.WriteBytes(va, []byte{1})
	// msync over anonymous memory is a no-op, not an error.
	if err := p.Msync(va, param.PageSize); err != nil {
		t.Fatal(err)
	}
}

func TestObjectCacheReuseAfterEviction(t *testing.T) {
	// An evicted object must be recreatable: full lifecycle through the
	// cache twice.
	m := testMachine(512)
	cfg := DefaultConfig()
	cfg.ObjCacheLimit = 1
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	p, _ := s.NewProcess("p")
	vnA := mkfile(t, m, "/a", 1, 0xA0)
	vnB := mkfile(t, m, "/b", 1, 0xB0)

	cycle := func(vn *vfs.Vnode, want byte) {
		va, err := p.Mmap(0, param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if err := p.ReadBytes(va, b); err != nil {
			t.Fatal(err)
		}
		if b[0] != want {
			t.Fatalf("read %#x want %#x", b[0], want)
		}
		p.Munmap(va, param.PageSize)
	}
	cycle(vnA, 0xA0)
	cycle(vnB, 0xB0) // evicts A's object
	cycle(vnA, 0xA0) // recreates A's object
	cycle(vnB, 0xB0)
	vnA.Unref()
	vnB.Unref()
}

// TestCollapseSwapOwnership is the regression test for the collapse
// swap double-free: when a merge adopts a shadow's swap slots, slot
// ownership must move with them — the donor's destroyPager must not
// free adopted slots and the adopter must free exactly what it took.
// Fork/exit churn over a region twice RAM pages shadow chains out and
// collapses them over and over; the buggy block-granular transfer
// panics with "double free of slot" in here. After every process
// exits, no swap may stay in use.
func TestCollapseSwapOwnership(t *testing.T) {
	m := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:  64,
		SwapPages: 4096, // room for every generation's shadow-chain blocks
		FSPages:   1024,
		MaxVnodes: 50,
	})
	s := BootConfig(m, DefaultConfig())
	testutil.SweepOnCleanup(t, s)
	p := newProc(t, s, "p")
	const pages = 96 // 1.5x RAM: every generation reclaims and pages out
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	touch := func(q vmapi.Process) {
		t.Helper()
		if err := q.TouchRange(va, pages*param.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	for gen := 0; gen < 6; gen++ {
		// Three generations deep: the middle process's chain both adopts
		// slots from below (when the grandchild dies) and donates them up
		// (when it dies itself) — ownership must survive the relay.
		c, err := p.Fork("c")
		if err != nil {
			t.Fatal(err)
		}
		touch(c)
		g, err := c.Fork("g")
		if err != nil {
			t.Fatal(err)
		}
		touch(g)
		touch(c)
		g.Exit()
		touch(c) // collapse: c's chain adopts g's leavings
		c.Exit()
		touch(p) // collapse: p's chain adopts from c, including relayed slots
	}
	if m.Stats.Get("bsdvm.collapse.merged") == 0 {
		t.Fatal("churn produced no collapse merges; the test lost its target")
	}
	p.Exit()
	if n := m.Swap.SlotsInUse(); n != 0 {
		t.Fatalf("%d swap slots still in use after every process exited", n)
	}
}
