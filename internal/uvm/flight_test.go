package uvm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/swap"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// TestFlightTable drives the one page-write mechanism through every
// combination it serves: completion policy {evict, clean} x {sync,
// async} x backend {swap anon, swap aobj, vnode} x {healthy disk,
// injected write error, swap too fragmented for a contiguous run}. Each
// cell builds four resident pages with their owners, claims the dirty
// ones the way the submitters do (Busy, owner locked), flies them, and
// checks the page end state, the Busy and owner-lock hand-back, the swap
// slot accounting, what wait reports and how many disk commands carrying
// how many pages it took.
//
// The synchronous object cells also vary the shape of the dirty set,
// because run length is a property of the pages and not of who waits:
// all four contiguous (ok: one command), a clean page in the middle
// (gap: two commands), the last page past EOF (eof, vnode only: it fails
// without poisoning the in-range run) and a write torn after its first
// page (torn: that run stays dirty, the next is never issued).
func TestFlightTable(t *testing.T) {
	const n = 4
	for _, evict := range []bool{true, false} {
		for _, async := range []bool{false, true} {
			for _, backend := range []string{"anon", "aobj", "vnode"} {
				for _, cond := range []string{"ok", "werr", "frag", "gap", "eof", "torn"} {
					if cond == "frag" && backend == "vnode" {
						continue // files have fixed homes: nothing to fragment
					}
					// The shapes cut runs by object index: not for standalone
					// anons, nor for the pagedaemon's one-cluster aobj pageout.
					shaped := !async && (backend == "vnode" || backend == "aobj" && !evict)
					switch cond {
					case "gap", "torn":
						if !shaped {
							continue
						}
					case "eof":
						if !shaped || backend != "vnode" {
							continue
						}
					}
					name := fmt.Sprintf("%s/%s/%s/%s",
						map[bool]string{true: "evict", false: "clean"}[evict],
						map[bool]string{true: "async", false: "sync"}[async], backend, cond)
					t.Run(name, func(t *testing.T) { flightCell(t, n, evict, async, backend, cond) })
				}
			}
		}
	}
}

func flightCell(t *testing.T, n int, evict, async bool, backend, cond string) {
	m := vmapi.NewMachine(vmapi.MachineConfig{RAMPages: 256, SwapPages: 64, FSPages: 1024, MaxVnodes: 8})
	s := BootConfig(m, DefaultConfig())
	testutil.SweepOnCleanup(t, s)

	// The owners and their resident pages: page i is filled with byte
	// 0xA0+i and dirty, except the clean one the gap and torn shapes leave
	// in the middle. pages[k] sits at index idxs[k] of its object.
	var (
		pages  []*phys.Page
		idxs   []int
		owners []any
		obj    *uobject
		vn     *vfs.Vnode
	)
	cleanIdx, fileSize := -1, n
	switch cond {
	case "gap", "torn":
		cleanIdx = n - 2 // dirty runs [0, n-2) and [n-1]
	case "eof":
		fileSize = n - 1 // page n-1 has no home in the file
	}
	fill := func(pg *phys.Page, i int) {
		if i == cleanIdx {
			pg.Dirty.Store(false)
			return
		}
		copy(pg.Data, bytes.Repeat([]byte{0xA0 + byte(i)}, param.PageSize))
		pg.Dirty.Store(true)
		pages = append(pages, pg)
		idxs = append(idxs, i)
	}
	switch backend {
	case "anon":
		am := s.newAmap(0, n)
		for i := 0; i < n; i++ {
			a, pg, err := s.newAnonPage(am, i, true)
			if err != nil {
				t.Fatal(err)
			}
			fill(pg, i)
			owners = append(owners, a)
		}
	case "aobj", "vnode":
		if backend == "aobj" {
			obj = s.newAObj(n)
		} else {
			vn = mkfile(t, m, "/flight", fileSize, 0)
			defer vn.Unref()
			obj = s.vnodeObject(vn)
		}
		defer s.objUnref(obj)
		obj.mu.Lock()
		for i := 0; i < n; i++ {
			pg, err := obj.ops.get(obj, i, i, i)
			if err != nil {
				t.Fatal(err)
			}
			fill(pg, i)
		}
		obj.mu.Unlock()
		owners = append(owners, obj)
	}

	// The disk condition.
	blockers := 0
	target := m.SwapDisk
	if backend == "vnode" {
		target = m.FSDisk
	}
	switch cond {
	case "werr":
		target.SetFaultPlan(disk.NewFaultPlan(
			disk.FaultRule{Kind: disk.FaultWriteError, Block: disk.BlockAny, Count: 1}))
	case "torn":
		target.SetFaultPlan(disk.NewFaultPlan(
			disk.FaultRule{Kind: disk.FaultTornWrite, Block: disk.BlockAny, Count: 1, TornPages: 1}))
	case "frag":
		// Take every slot, give every other one back: plenty of room, no
		// two free slots adjacent.
		for i := int64(0); i < m.Swap.Slots(); i++ {
			if _, err := m.Swap.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < m.Swap.Slots(); i += 2 {
			m.Swap.Free(i)
		}
		blockers = m.Swap.SlotsInUse()
	}

	// Claim and fly: owners locked, dirty pages Busy — as the pagedaemon's
	// scan (evict: the locks travel with the flight) and flushLocked
	// (clean: the submitter keeps its lock and drops it after submit) do.
	// Object pages leave as runs of consecutive indices; anonymous memory
	// the pagedaemon evicts — anons and aobj pages alike — as one cluster.
	held := make(ownerSet)
	for _, o := range owners {
		if proceed, _ := held.tryAcquire(o); !proceed {
			t.Fatalf("owner %T busy before the flight", o)
		}
		held.keep(o)
	}
	for _, pg := range pages {
		pg.Busy.Store(true)
	}
	before := m.Stats.Snapshot()
	freeBefore := m.Mem.FreePages()
	var handed ownerSet
	if evict {
		handed = held
	}
	fl := s.newFlight(evict, async, handed, len(pages))
	if backend == "anon" || backend == "aobj" && evict {
		fl.swapRun(pages)
	} else {
		fl.objRuns(obj, idxs, pages)
	}
	fl.submit()
	if !evict {
		held.releaseAll()
	}
	written, err := fl.wait()

	// What wait reports, and what reached the disk: pages[:wantWritten]
	// were written and the rest failed; the flight took wantIOs commands,
	// which moved wantMoved pages.
	wantWritten, wantIOs, wantMoved := len(pages), 1, len(pages)
	var wantErr error
	switch cond {
	case "frag":
		wantIOs = n // singles
	case "gap":
		wantIOs = 2
	case "eof":
		wantWritten, wantMoved, wantErr = n-1, n-1, vfs.ErrBadOffset
	case "werr": // one contiguous run
		wantWritten, wantMoved, wantErr = 0, 0, disk.ErrInjected
	case "torn":
		// The first run's first page landed, the run failed as a whole,
		// and a synchronous flight stops there.
		wantWritten, wantMoved, wantErr = 0, 1, disk.ErrInjected
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("wait error = %v, want %v", err, wantErr)
	}
	if written != wantWritten {
		t.Fatalf("wait reports %d pages written, want %d", written, wantWritten)
	}
	after := m.Stats.Snapshot()
	charged := after[sim.CtrDiskWrites] - before[sim.CtrDiskWrites]
	deferred := after[sim.CtrDiskWritesDeferred] - before[sim.CtrDiskWritesDeferred]
	if async && charged != 0 || !async && deferred != 0 {
		t.Errorf("async=%v flight issued %d clock-charged and %d deferred writes", async, charged, deferred)
	}
	if charged+deferred != int64(wantIOs) {
		t.Errorf("%d disk write commands, want %d", charged+deferred, wantIOs)
	}
	// Only clock-charged commands count the pages they move.
	if moved := after[sim.CtrDiskPagesWrite] - before[sim.CtrDiskPagesWrite]; !async && moved != int64(wantMoved) {
		t.Errorf("the write commands moved %d pages, want %d", moved, wantMoved)
	}

	// Busy handed back, owner locks released, no flight left pending.
	busySweep(t, m, "after the flight")
	for _, o := range owners {
		if proceed, _ := make(ownerSet).tryAcquire(o); !proceed {
			t.Fatalf("owner %T still locked after the flight", o)
		}
		releaseOwner(o)
	}
	if got := s.flights.Load(); got != 0 {
		t.Fatalf("%d flights still pending", got)
	}

	// Page end state.
	freed := 0
	for k, pg := range pages {
		i := idxs[k]
		attached := false
		switch o := owners[i%len(owners)].(type) {
		case *anon:
			attached = o.page == pg
		case *uobject:
			attached = o.pages[i] == pg
		}
		switch {
		case k >= wantWritten: // failed: dirty, resident, and back on the active queue if it was leaving
			if !attached || !pg.Dirty.Load() {
				t.Errorf("page %d after a failed write: attached=%v dirty=%v", i, attached, pg.Dirty.Load())
			}
			if evict && pg.Queue() != phys.QueueActive {
				t.Errorf("page %d not reactivated after a failed evict flight (queue %d)", i, pg.Queue())
			}
		case evict: // written and freed
			if attached || pg.Owner() != nil || pg.Queue() != phys.QueueFree {
				t.Errorf("page %d not freed by the evict flight: %v", i, pg)
			}
			freed++
		default: // written, clean, resident
			if !attached || pg.Dirty.Load() {
				t.Errorf("page %d after a clean flight: attached=%v dirty=%v", i, attached, pg.Dirty.Load())
			}
		}
	}
	if cleanIdx >= 0 {
		if pg := obj.pages[cleanIdx]; pg == nil || pg.Dirty.Load() {
			t.Errorf("the clean page in the gap was touched: %v", pg)
		}
	}
	if got := m.Mem.FreePages() - freeBefore; got != freed {
		t.Errorf("free frames grew by %d, want %d", got, freed)
	}
	if got := after[sim.CtrPageOuts] - before[sim.CtrPageOuts]; got != int64(wantWritten) {
		t.Errorf("vm.pageouts grew by %d, want %d", got, wantWritten)
	}

	// Backing store: every written page is where its owner says it is,
	// and swap holds exactly the slots the owners name (a double free
	// would have panicked in the allocator).
	buf := make([]byte, param.PageSize)
	slots := 0
	for k, i := range idxs {
		var rerr error
		switch o := owners[i%len(owners)].(type) {
		case *anon:
			if o.swslot == swap.NoSlot {
				continue
			}
			slots++
			rerr = m.Swap.ReadSlot(o.swslot, buf)
		case *uobject:
			if vn != nil {
				if i >= fileSize {
					continue
				}
				rerr = vn.ReadPage(i, buf)
			} else if slot, ok := o.aobjSlots[i]; ok {
				slots++
				rerr = m.Swap.ReadSlot(slot, buf)
			} else {
				continue
			}
		}
		if k >= wantWritten {
			continue // a failed write may leave anything behind
		}
		if rerr != nil || buf[0] != 0xA0+byte(i) || buf[param.PageSize-1] != 0xA0+byte(i) {
			t.Errorf("page %d on backing store: err=%v first byte %#x", i, rerr, buf[0])
		}
	}
	if backend != "vnode" {
		if wantErr == nil && slots != len(pages) {
			t.Errorf("%d pages have swap slots, want %d", slots, len(pages))
		}
		if got := m.Swap.SlotsInUse() - blockers; got != slots {
			t.Errorf("%d swap slots in use, owners name %d", got, slots)
		}
	}
	if backend == "anon" { // standalone anons: release their frames and slots
		for _, o := range owners {
			s.anonUnref(o.(*anon))
		}
	}
}
