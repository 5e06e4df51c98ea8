package pmap

import (
	"math/rand"
	"slices"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
)

// TestPageTableAgainstModel drives one pmap with seeded random calls of
// every operation that edits its page table, mirrors each call on a
// map[VAddr]PTE model, and after every step checks the table against the
// model: every translation, the resident, wired and page-table page
// counts, the alloc/free hooks and the reverse map. The VAs sit at the
// bottom of the address space, on both sides of 4 MB boundaries and at
// the top of kernel space.
func TestPageTableAgainstModel(t *testing.T) {
	const pg = param.PageSize
	vas := []param.VAddr{
		0x1000, 0x2000,
		0x3fe000, 0x3ff000, 0x400000, 0x401000,
		0x7ff000, 0x800000,
		param.UserMax - pg, param.UserMax,
		param.KernelMax - 2*pg, param.KernelMax - pg,
	}
	for seed := int64(1); seed <= 8; seed++ {
		f := newFixture(8)
		pm := f.mmu.NewPmap("model")
		allocs, frees := 0, 0
		pm.OnPTAlloc = func() { allocs++ }
		pm.OnPTFree = func() { frees++ }
		var pages []*phys.Page
		for range 6 {
			pages = append(pages, f.page(t))
		}
		model := map[param.VAddr]PTE{}
		rng := rand.New(rand.NewSource(seed))
		randVA := func() param.VAddr { return vas[rng.Intn(len(vas))] }
		randPTE := func() PTE {
			return PTE{Page: pages[rng.Intn(len(pages))], Prot: param.Prot(1 + rng.Intn(7)), Wired: rng.Intn(3) == 0}
		}
		// randRange returns a window from one pool VA to past another,
		// sometimes with an unaligned start.
		randRange := func() (param.VAddr, param.VAddr) {
			a, b := randVA(), randVA()
			if a > b {
				a, b = b, a
			}
			if rng.Intn(4) == 0 {
				a += 0x80
			}
			return a, b + param.VAddr(rng.Intn(2))*pg
		}
		// modelRange applies fn to every model translation in [start, end).
		modelRange := func(start, end param.VAddr, fn func(va param.VAddr)) {
			for va := range model {
				if va >= param.Trunc(start) && va < end {
					fn(va)
				}
			}
		}
		narrowModel := func(va param.VAddr, prot param.Prot) {
			if prot == param.ProtNone {
				delete(model, va)
				return
			}
			e := model[va]
			e.Prot &= prot
			model[va] = e
		}

		for step := 0; step < 400; step++ {
			var op string
			switch rng.Intn(9) {
			case 0, 1:
				op = "Enter"
				va, e := randVA(), randPTE()
				pm.Enter(va, e.Page, e.Prot, e.Wired)
				model[va] = e
			case 2:
				op = "EnterBatch"
				var batch []BatchEntry
				for range 1 + rng.Intn(5) {
					va, e := randVA(), randPTE()
					batch = append(batch, BatchEntry{VA: va, Page: e.Page, Prot: e.Prot, Wired: e.Wired})
					model[va] = e
				}
				pm.EnterBatch(batch)
			case 3:
				op = "Remove"
				start := randVA()
				end := start + param.VAddr(1+rng.Intn(3))*pg
				pm.Remove(start, end)
				modelRange(start, end, func(va param.VAddr) { delete(model, va) })
			case 4:
				op = "RemoveBatch"
				start, end := randRange()
				pm.RemoveBatch(start, end)
				modelRange(start, end, func(va param.VAddr) { delete(model, va) })
			case 5:
				op = "Protect"
				start, end := randRange()
				prot := param.Prot(rng.Intn(8))
				pm.Protect(start, end, prot)
				modelRange(start, end, func(va param.VAddr) { narrowModel(va, prot) })
			case 6:
				op = "ChangeWiring"
				va, wired := randVA(), rng.Intn(2) == 0
				pm.ChangeWiring(va, wired)
				if e, ok := model[va]; ok {
					e.Wired = wired
					model[va] = e
				}
			case 7:
				op = "PageProtect"
				page, prot := pages[rng.Intn(len(pages))], param.Prot(rng.Intn(4))
				f.mmu.PageProtect(page, prot)
				for va, e := range model {
					if e.Page == page {
						narrowModel(va, prot)
					}
				}
			default:
				if rng.Intn(4) != 0 {
					continue
				}
				op = "RemoveAll"
				pm.RemoveAll()
				clear(model)
			}

			for _, va := range vas {
				got, ok := pm.Extract(va)
				want, wok := model[va]
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d (%s): Extract(%#x) = %+v/%v, model %+v/%v", seed, step, op, va, got, ok, want, wok)
				}
			}
			regions, wired := map[param.VAddr]bool{}, 0
			for va, e := range model {
				regions[va>>ptRegionShift] = true
				if e.Wired {
					wired++
				}
			}
			if n := pm.ResidentCount(); n != len(model) {
				t.Fatalf("seed %d step %d (%s): ResidentCount %d, model %d", seed, step, op, n, len(model))
			}
			if n := pm.PTPages(); n != len(regions) || allocs-frees != n {
				t.Fatalf("seed %d step %d (%s): PTPages %d, %d regions mapped, %d allocs - %d frees",
					seed, step, op, n, len(regions), allocs, frees)
			}
			if n := pm.wiredCount(); n != wired {
				t.Fatalf("seed %d step %d (%s): wired %d, model %d", seed, step, op, n, wired)
			}
			checkInverse(t, f, []*Pmap{pm})
			if t.Failed() {
				t.Fatalf("seed %d step %d (%s): reverse map diverged", seed, step, op)
			}
		}
	}
}

// raceBuild is set in -race builds (race_test.go).
var raceBuild bool

// TestPageTableLimits pins the two edges of a 32-bit page table: a VA at
// or above 4 GB cannot be entered, and an MMU whose PTEs cannot name
// every frame of its memory does not boot.
func TestPageTableLimits(t *testing.T) {
	const over = param.VAddr(1) << 32
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"enter-beyond-4GB", func(t *testing.T) {
			f := newFixture(2)
			f.mmu.NewPmap("p").Enter(over, f.page(t), param.ProtRead, false)
		}},
		{"enterbatch-beyond-4GB", func(t *testing.T) {
			f := newFixture(2)
			f.mmu.NewPmap("p").EnterBatch([]BatchEntry{{VA: over - param.PageSize, Page: f.page(t)}, {VA: over, Page: f.page(t)}})
		}},
		{"frames-beyond-32-bit-PTE", func(t *testing.T) {
			clock, costs, stats := sim.NewClock(), sim.DefaultCosts(), sim.NewStats()
			NewMMU(clock, costs, stats, phys.NewMem(clock, costs, stats, maxFrames+1))
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.name == "frames-beyond-32-bit-PTE" && (testing.Short() || raceBuild) {
				t.Skip("boots 4 GB + 4 KB of frames: 185 MB of frame structures, three times that under -race")
			}
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			r.run(t)
		})
	}
}

// TestPageTableCycleAllocs is the allocation fence of the page table: a
// warm pmap's 16-page EnterBatch and RemoveBatch — an mmap and munmap of
// a fresh region — allocate nothing, the emptied page-table page being
// kept as the spare the next region reuses.
func TestPageTableCycleAllocs(t *testing.T) {
	f := newFixture(20)
	pm := f.mmu.NewPmap("cycle")
	pm.Enter(0x1000, f.page(t), param.ProtRW, false) // a region that stays mapped
	const base = param.VAddr(0x4000_0000)
	batch := make([]BatchEntry, 16)
	for i := range batch {
		batch[i] = BatchEntry{VA: base + param.VAddr(i)*param.PageSize, Page: f.page(t), Prot: param.ProtRW}
	}
	cycle := func() {
		pm.EnterBatch(batch)
		pm.RemoveBatch(base, base+16*param.PageSize)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("warm 16-page map/unmap cycle allocates %v objects, want 0", n)
	}
	if got := pm.PTPages(); got != 1 || !slices.ContainsFunc(pm.dir, func(e pde) bool { return e.base == 0 }) {
		t.Errorf("after the cycles: %d page-table pages, want the one at 0", got)
	}
}
