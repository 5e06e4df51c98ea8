package uvm

import (
	"bytes"
	"errors"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// TestPageinTable drives the one page-read mechanism through every
// combination it serves: owner {anon, aobj, vnode} x shape {single page,
// clustered with PageinCluster=8, §10 read-ahead (vnode only)} x outcome
// {healthy disk; read error on the faulting page's block; read error on
// a neighbour's block only; a neighbour that drops out under the
// enumerator — TryLock-busy (anon), or made resident / stripped of its
// slot while o.mu is down for a frame allocation (aobj)}. Each cell
// builds an eight-page region whose data sits on backing store (the
// swapped-out pages in eight consecutive slots), faults on the page in
// the fourth slot and checks the fault's result, the bytes, the Busy and
// owner-lock hand-back, the frame accounting, the disk read commands and
// vm.pageins.
func TestPageinTable(t *testing.T) {
	for _, owner := range []string{"anon", "aobj", "vnode"} {
		for _, shape := range []string{"single", "cluster", "readahead"} {
			for _, outcome := range []string{"ok", "centre-err", "nbr-err", "nbr-busy", "nbr-resident", "nbr-noslot"} {
				switch {
				case shape == "readahead" && owner != "vnode",
					outcome == "nbr-err" && (shape == "single" || owner == "vnode" && shape == "cluster"), // a run of one has no neighbours
					outcome == "nbr-busy" && (owner != "anon" || shape != "cluster"),
					(outcome == "nbr-resident" || outcome == "nbr-noslot") && (owner != "aobj" || shape != "cluster"):
					continue
				}
				t.Run(owner+"/"+shape+"/"+outcome, func(t *testing.T) { pageinCell(t, owner, shape, outcome) })
			}
		}
	}
}

func pageinCell(t *testing.T, owner, shape, outcome string) {
	const n, centre = 8, 3
	m := vmapi.NewMachine(vmapi.MachineConfig{RAMPages: 256, SwapPages: 256, FSPages: 1024, MaxVnodes: 8})
	cfg := DefaultConfig()
	cfg.InlineReclaim = true // no daemon: nothing but the fault touches memory
	if shape == "cluster" {
		cfg.PageinCluster = n
	}
	cfg.AsyncPagein = shape == "readahead"
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	p := newProc(t, s, "p")
	want := func(i int) []byte { return bytes.Repeat([]byte{0xA0 + byte(i)}, param.PageSize) }
	at := func(va param.VAddr, i int) param.VAddr { return va + param.VAddr(i)*param.PageSize }

	// The region, its data on backing store. page[i] is the region page
	// whose block is the i-th of the run: file order for the vnode, slot
	// order for swap (the pagedaemon clusters in scan order, not VA order).
	var (
		va   param.VAddr
		err  error
		page [n]int   // run position -> region page
		blk  [n]int64 // run position -> swap slot
		dev  = m.SwapDisk
	)
	if owner == "vnode" {
		dev = m.FSDisk
		vn := mkfile(t, m, "/pagein", n, 0xA0)
		defer vn.Unref()
		if va, err = p.Mmap(0, n*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0); err != nil {
			t.Fatal(err)
		}
		for i := range page {
			page[i] = i
		}
	} else {
		flags := vmapi.MapAnon | vmapi.MapPrivate
		if owner == "aobj" {
			flags = vmapi.MapAnon | vmapi.MapShared
		}
		if va, err = p.Mmap(0, n*param.PageSize, param.ProtRW, flags, nil, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := p.WriteBytes(at(va, i), want(i)); err != nil {
				t.Fatal(err)
			}
			pte, _ := p.pm.Lookup(at(va, i))
			m.MMU.PageProtect(pte.Page, param.ProtNone)
			pte.Page.Referenced.Store(false)
			m.Mem.Deactivate(pte.Page)
		}
		if freed := s.reclaimCount(n); freed != n {
			t.Fatalf("evicted %d of %d pages", freed, n)
		}
	}
	e := p.m.lookupQuiet(va)
	slotOf := func(i int) int64 {
		if owner == "anon" {
			return e.amap.impl.get(e.slotOf(at(va, i))).swslot
		}
		return e.obj.aobjSlots[e.objIndex(at(va, i))]
	}
	if owner != "vnode" {
		lo := slotOf(0)
		for i := 1; i < n; i++ {
			lo = min(lo, slotOf(i))
		}
		for i := 0; i < n; i++ {
			if d := slotOf(i) - lo; d >= n {
				t.Fatalf("region not paged out to %d consecutive slots", n)
			} else {
				page[d], blk[d] = i, slotOf(i)
			}
		}
	}
	resident := func() (k int) {
		for i := 0; i < n; i++ {
			if owner == "anon" {
				if e.amap.impl.get(e.slotOf(at(va, i))).page != nil {
					k++
				}
			} else if e.obj.pages[e.objIndex(at(va, i))] != nil {
				k++
			}
		}
		return k
	}
	if resident() != 0 {
		t.Fatalf("%d region pages resident before the fault", resident())
	}

	// The outcome's condition. The victim neighbour is the first page of
	// the run: the aobj enumerator has its frame in hand before the rug is
	// pulled, so it is the re-verification that must notice.
	victim, byHook := page[0], 0
	switch outcome {
	case "centre-err", "nbr-err":
		rule := disk.FaultRule{Kind: disk.FaultReadError, Block: blk[centre]}
		switch {
		case owner == "vnode" && outcome == "centre-err":
			rule.Block = disk.BlockAny
		case owner == "vnode": // the second read-ahead page
			rule.Block, rule.AfterOps, rule.Count = disk.BlockAny, 2, 1
		case outcome == "nbr-err":
			rule.Block = blk[0]
		}
		dev.SetFaultPlan(disk.NewFaultPlan(rule))
	case "nbr-busy":
		e.amap.impl.get(e.slotOf(at(va, victim))).mu.Lock()
	case "nbr-resident", "nbr-noslot":
		o, vIdx, allocs := e.obj, e.objIndex(at(va, victim)), 0
		m.Mem.SetLowWater(m.Mem.TotalPages()+1, func() { // runs inside every frame allocation
			if allocs++; allocs != 3 {
				return // 1: the centre's frame, 2: the victim's, 3: the next neighbour's
			}
			o.mu.Lock()
			if outcome == "nbr-noslot" {
				m.Swap.Free(o.aobjSlots[vIdx])
				delete(o.aobjSlots, vIdx)
			} else {
				pg, err := m.Mem.Alloc(o, param.PageToOff(vIdx), false)
				if err != nil {
					t.Error(err)
				}
				copy(pg.Data, want(victim))
				pg.Dirty.Store(true)
				o.pages[vIdx] = pg
				m.Mem.Activate(pg)
				byHook = 1
			}
			o.mu.Unlock()
		})
	}

	// What the fault should do.
	wantInstalled, wantReads, wantDeferred := 1, 1, 0
	clustered := shape == "cluster" && owner != "vnode"
	switch {
	case outcome == "centre-err":
		wantInstalled = 0
		if clustered {
			wantReads = 2 // the cluster, then the centre alone
		}
	case shape == "readahead" && outcome == "ok":
		wantInstalled, wantDeferred = 1+4, 4 // the default advice reads four pages ahead
	case shape == "readahead":
		wantInstalled, wantDeferred = 2, 2 // read-ahead stops at its first error
	case clustered && outcome == "ok":
		wantInstalled = n
	case clustered && outcome == "nbr-err":
		wantReads = 2
	case clustered:
		wantInstalled = n - 1 // the run shrinks to what lies beyond the victim
	}

	before := m.Stats.Snapshot()
	freeBefore := m.Mem.FreePages()
	got := make([]byte, param.PageSize)
	err = p.ReadBytes(at(va, page[centre]), got)
	after := m.Stats.Snapshot()
	dev.SetFaultPlan(nil)
	m.Mem.SetLowWater(0, nil)
	if outcome == "nbr-busy" {
		e.amap.impl.get(e.slotOf(at(va, victim))).mu.Unlock()
	}

	if outcome == "centre-err" {
		if !errors.Is(err, disk.ErrInjected) {
			t.Fatalf("fault returned %v, want ErrInjected", err)
		}
	} else if err != nil || !bytes.Equal(got, want(page[centre])) {
		t.Fatalf("fault: err=%v first byte %#x, want %#x", err, got[0], want(page[centre])[0])
	}
	busySweep(t, m, "after the fault")
	if k := resident() - byHook; k != wantInstalled {
		t.Errorf("%d pages installed, want %d", k, wantInstalled)
	}
	if d := freeBefore - m.Mem.FreePages(); d != wantInstalled+byHook {
		t.Errorf("free frames fell by %d, want %d", d, wantInstalled+byHook)
	}
	delta := func(name string) int { return int(after[name] - before[name]) }
	if delta(sim.CtrDiskReads) != wantReads || delta("disk.reads.deferred") != wantDeferred {
		t.Errorf("%d charged + %d deferred read commands, want %d + %d",
			delta(sim.CtrDiskReads), delta("disk.reads.deferred"), wantReads, wantDeferred)
	}
	if delta(sim.CtrPageIns) != wantInstalled {
		t.Errorf("vm.pageins grew by %d, want %d", delta(sim.CtrPageIns), wantInstalled)
	}
	wantAnon := 0
	if owner == "anon" {
		wantAnon = wantInstalled
	}
	if delta("uvm.anon.pagein") != wantAnon {
		t.Errorf("uvm.anon.pagein grew by %d, want %d", delta("uvm.anon.pagein"), wantAnon)
	}
	if outcome == "nbr-busy" && e.amap.impl.get(e.slotOf(at(va, victim))).page != nil {
		t.Error("the busy neighbour was paged in behind its lock")
	}

	// Every owner lock is free again.
	if owner == "anon" {
		for i := 0; i < n; i++ {
			if a := e.amap.impl.get(e.slotOf(at(va, i))); !a.mu.TryLock() {
				t.Fatalf("anon of page %d still locked after the fault", i)
			} else {
				a.mu.Unlock()
			}
		}
		if !e.amap.mu.TryLock() {
			t.Fatal("amap still locked after the fault")
		}
		e.amap.mu.Unlock()
	} else {
		if !e.obj.mu.TryLock() {
			t.Fatal("object still locked after the fault")
		}
		e.obj.mu.Unlock()
	}

	// With the disk healthy again every byte is what was paged out: pages
	// a failed run gave up on, neighbours that rode along and neighbours
	// that dropped out alike.
	for i := 0; i < n; i++ {
		exp := want(i)
		if outcome == "nbr-noslot" && i == victim {
			exp = make([]byte, param.PageSize) // its backing copy was freed: zero-fill
		}
		if err := p.ReadBytes(at(va, i), got); err != nil || !bytes.Equal(got, exp) {
			t.Errorf("page %d afterwards: err=%v first byte %#x, want %#x", i, err, got[0], exp[0])
		}
	}
	busySweep(t, m, "at the end")
}
