package pmap

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
)

// TestRemoveBatchMatchesRemove pins RemoveBatch to Remove's semantics:
// the same window torn down either way yields identical page tables, pv
// lists, wired counts, PT-page accounting — and identical simulated
// time, since the batch charges the per-translation PmapRemove cost for
// exactly the translations it removes.
func TestRemoveBatchMatchesRemove(t *testing.T) {
	type fix struct {
		f   *fixture
		pm  *Pmap
		pgs []*phys.Page
	}
	mk := func(name string) fix {
		f := newFixture(8)
		pm := f.mmu.NewPmap(name)
		var pgs []*phys.Page
		for i := 0; i < 4; i++ {
			pgs = append(pgs, f.page(t))
		}
		pm.Enter(0x1000, pgs[0], param.ProtRW, true)
		pm.Enter(0x2000, pgs[1], param.ProtRead, false)
		pm.Enter(0x5000, pgs[2], param.ProtRW, false) // gap at 0x3000-0x4000
		pm.Enter(0x40000000, pgs[3], param.ProtRW, true)
		return fix{f: f, pm: pm, pgs: pgs}
	}

	for _, window := range []struct {
		name       string
		start, end param.VAddr
	}{
		{"partial", 0x1000, 0x3000},
		{"with-gap", 0x1000, 0x6000},
		{"everything", 0, 0x50000000},
		{"empty", 0x8000, 0x9000},
		{"unaligned-start", 0x1080, 0x3000},
	} {
		t.Run(window.name, func(t *testing.T) {
			loop, batch := mk("loop"), mk("batch")
			loop.pm.Remove(window.start, window.end)
			batch.pm.RemoveBatch(window.start, window.end)

			if loop.pm.ResidentCount() != batch.pm.ResidentCount() ||
				loop.pm.wiredCount() != batch.pm.wiredCount() ||
				loop.pm.PTPages() != batch.pm.PTPages() {
				t.Fatalf("bookkeeping diverged: loop res=%d wired=%d pt=%d, batch res=%d wired=%d pt=%d",
					loop.pm.ResidentCount(), loop.pm.wiredCount(), loop.pm.PTPages(),
					batch.pm.ResidentCount(), batch.pm.wiredCount(), batch.pm.PTPages())
			}
			for i := range loop.pgs {
				if loop.f.mmu.pageMappings(loop.pgs[i]) != batch.f.mmu.pageMappings(batch.pgs[i]) {
					t.Fatalf("page %d: pv count %d (loop) vs %d (batch)", i,
						loop.f.mmu.pageMappings(loop.pgs[i]), batch.f.mmu.pageMappings(batch.pgs[i]))
				}
			}
			for _, va := range []param.VAddr{0x1000, 0x2000, 0x5000, 0x40000000} {
				lp, lok := loop.pm.Lookup(va)
				bp, bok := batch.pm.Lookup(va)
				if lok != bok || (lok && (lp.Prot != bp.Prot || lp.Wired != bp.Wired)) {
					t.Fatalf("va %#x: loop %+v/%v vs batch %+v/%v", va, lp, lok, bp, bok)
				}
			}
			// Sim-time parity: the loop and the batch must charge the
			// same time for the same teardown.
			if lt, bt := loop.f.mmu.clock.Now(), batch.f.mmu.clock.Now(); lt != bt {
				t.Fatalf("simulated time diverged: loop %v vs batch %v", lt, bt)
			}
			checkInverse(t, batch.f, []*Pmap{batch.pm})
		})
	}
}

// TestRemoveBatchCounters verifies the batch teardown is visible in the
// pmap.pv.batch.remove* stats.
func TestRemoveBatchCounters(t *testing.T) {
	f := newFixture(4)
	pm := f.mmu.NewPmap("ctr")
	for i := 0; i < 3; i++ {
		pm.Enter(param.VAddr(0x1000+i*0x1000), f.page(t), param.ProtRW, false)
	}
	pm.RemoveBatch(0x1000, 0x4000)
	if got := f.mmu.stats.Get(sim.CtrPVBatchRemoves); got != 1 {
		t.Errorf("batch removes counter = %d, want 1", got)
	}
	if got := f.mmu.stats.Get(sim.CtrPVBatchRemovePages); got != 3 {
		t.Errorf("batch remove pages counter = %d, want 3", got)
	}
	// An empty window is not counted as a batch.
	pm.RemoveBatch(0x1000, 0x4000)
	if got := f.mmu.stats.Get(sim.CtrPVBatchRemoves); got != 1 {
		t.Errorf("empty batch counted: removes = %d, want 1", got)
	}
}
