package uvm

import (
	"runtime"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// TestAnonFaultAllocs fences the heap traffic of the uncontended
// anonymous fault on a booted default machine. The cycle the anon_fault
// workload is made of — mmap 32 private zero-fill pages, write-fault
// each, munmap — may allocate the map entry, the amap and one anon per
// page, plus amortised page-table growth: no closure, candidate slice,
// pv list or batch buffer per fault. And a read fault on a resident but
// unmapped anon allocates nothing of its own at all.
func TestAnonFaultAllocs(t *testing.T) {
	const npages = 32
	const length = npages * param.PageSize

	t.Run("mmap-fault-munmap", func(t *testing.T) {
		s, _ := bootTest(t, 4096)
		p := newProc(t, s, "cycle")
		cycle := func() {
			va, err := p.Mmap(0, length, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.TouchRange(va, length, true); err != nil {
				t.Fatal(err)
			}
			if err := p.Munmap(va, length); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(200, cycle)
		t.Logf("mmap + %d write faults + munmap: %.0f allocations", npages, got)
		// 36 measured; 2 of headroom.
		if got > 38 {
			t.Errorf("want <= 38 allocations")
		}
	})

	t.Run("read-fault-resident-anon", func(t *testing.T) {
		s, m := bootTest(t, 4096)
		p := newProc(t, s, "refault")
		// Random advice: the fault maps its own page only, so each run
		// below is exactly one fault.
		va, pages := lookaheadRegion(t, p, m, 0x4000_0000, npages, param.AdviceRandom)
		i := 0
		refault := func() {
			page := i % npages
			i++
			m.MMU.PageProtect(pages[page], param.ProtNone)
			if err := p.Access(va+param.VAddr(page)*param.PageSize, false); err != nil {
				t.Fatal(err)
			}
		}
		faults := m.Stats.Get("vm.faults")
		got := testing.AllocsPerRun(400, refault)
		t.Logf("read fault on a resident, unmapped anon: %.2f allocations", got)
		if got > 1 {
			t.Errorf("want <= 1 allocation")
		}
		if got := m.Stats.Get("vm.faults") - faults; got != 401 {
			t.Errorf("%d faults over 401 runs: the cell is not measuring the fault path", got)
		}
	})
}

// TestMsyncSteadyStateAllocs fences the heap traffic of the file_write
// workload's request on a warm file: open, map 16 pages shared, write
// each, Msync, unmap, unref. The pages stay resident and share their
// disk blocks (internal/phys) — even after a store, once one Msync has
// frozen the stored bytes — so the Msync hands the disk the blocks it
// already holds: the cycle allocates no page buffer, and no per-page
// slice either.
func TestMsyncSteadyStateAllocs(t *testing.T) {
	const npages = 16
	const length = npages * param.PageSize
	s, m := bootTest(t, 4096)
	p := newProc(t, s, "writer")
	vn := mkfile(t, m, "/warm", npages, 0x10)
	va, err := p.Mmap(0, length, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A store into every page: the frames hold their own bytes until
	// the first Msync freezes them.
	if err := p.WriteBytes(va, make([]byte, length)); err != nil {
		t.Fatal(err)
	}
	if err := p.Munmap(va, length); err != nil {
		t.Fatal(err)
	}
	vn.Unref()
	writes := m.Stats.Get(sim.CtrDiskWrites)
	cycle := func() {
		vn, err := m.FS.Open("/warm")
		if err != nil {
			t.Fatal(err)
		}
		va, err := p.Mmap(0, length, param.ProtRW, vmapi.MapShared, vn, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range npages {
			if err := p.Access(va+param.VAddr(i)*param.PageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Msync(va, length); err != nil {
			t.Fatal(err)
		}
		if err := p.Munmap(va, length); err != nil {
			t.Fatal(err)
		}
		vn.Unref()
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&after)
	perCycle := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("open + mmap + %d writes + msync + munmap + unref: %.0f allocations, %.0f bytes", npages, got, perCycle)
	if got := m.Stats.Get(sim.CtrDiskWrites) - writes; got != runs+1 {
		t.Errorf("%d disk writes over %d cycles, want one each: the cycle is not measuring msync", got, runs+1)
	}
	if perCycle >= param.PageSize {
		t.Errorf("%.0f bytes per cycle: a page buffer is allocated", perCycle)
	}
	// 10 measured; 2 of headroom.
	if got > 12 {
		t.Errorf("want <= 12 allocations")
	}
}
