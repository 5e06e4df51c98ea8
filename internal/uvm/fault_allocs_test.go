package uvm

import (
	"testing"

	"uvm/internal/param"
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
