package pmap

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
)

type fixture struct {
	mmu *MMU
	mem *phys.Mem
}

func newFixture(npages int) *fixture {
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	stats := sim.NewStats()
	mem := phys.NewMem(clock, costs, stats, npages)
	return &fixture{mmu: NewMMU(clock, costs, stats, mem), mem: mem}
}

func (f *fixture) page(t *testing.T) *phys.Page {
	t.Helper()
	p, err := f.mem.Alloc(nil, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const va0 = param.VAddr(0x1000)

func TestEnterExtract(t *testing.T) {
	f := newFixture(4)
	pm := f.mmu.NewPmap("p1")
	pg := f.page(t)
	pm.Enter(va0, pg, param.ProtRW, false)

	pte, ok := pm.Extract(va0)
	if !ok || pte.Page != pg || pte.Prot != param.ProtRW || pte.Wired {
		t.Fatalf("Extract = %+v, %v", pte, ok)
	}
	// Sub-page address resolves to the same translation.
	if pte2, ok := pm.Extract(va0 + 123); !ok || pte2.Page != pg {
		t.Fatal("unaligned extract failed")
	}
	if _, ok := pm.Extract(va0 + param.PageSize); ok {
		t.Fatal("phantom translation")
	}
	if pm.ResidentCount() != 1 {
		t.Fatalf("resident = %d", pm.ResidentCount())
	}
	if f.mmu.pageMappings(pg) != 1 {
		t.Fatalf("pv count = %d", f.mmu.pageMappings(pg))
	}
}

func TestEnterUnalignedPanics(t *testing.T) {
	f := newFixture(2)
	pm := f.mmu.NewPmap("p")
	pg := f.page(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	pm.Enter(va0+1, pg, param.ProtRead, false)
}

func TestReplaceTranslation(t *testing.T) {
	f := newFixture(4)
	pm := f.mmu.NewPmap("p")
	a, b := f.page(t), f.page(t)
	pm.Enter(va0, a, param.ProtRead, false)
	pm.Enter(va0, b, param.ProtRW, false)
	pte, _ := pm.Extract(va0)
	if pte.Page != b || pte.Prot != param.ProtRW {
		t.Fatalf("replacement failed: %+v", pte)
	}
	if f.mmu.pageMappings(a) != 0 {
		t.Fatal("stale pv entry on replaced page")
	}
	if f.mmu.pageMappings(b) != 1 {
		t.Fatal("missing pv entry on new page")
	}
	if pm.ResidentCount() != 1 {
		t.Fatalf("resident = %d after replace", pm.ResidentCount())
	}
}

func TestRemoveRange(t *testing.T) {
	f := newFixture(8)
	pm := f.mmu.NewPmap("p")
	var pages []*phys.Page
	for i := 0; i < 4; i++ {
		pg := f.page(t)
		pm.Enter(va0+param.VAddr(i*param.PageSize), pg, param.ProtRead, false)
		pages = append(pages, pg)
	}
	// Remove the middle two.
	pm.Remove(va0+param.PageSize, va0+3*param.PageSize)
	if pm.ResidentCount() != 2 {
		t.Fatalf("resident = %d", pm.ResidentCount())
	}
	if _, ok := pm.Lookup(va0); !ok {
		t.Fatal("first page lost")
	}
	if _, ok := pm.Lookup(va0 + param.PageSize); ok {
		t.Fatal("middle page survived")
	}
	if f.mmu.pageMappings(pages[1]) != 0 || f.mmu.pageMappings(pages[2]) != 0 {
		t.Fatal("pv entries survived removal")
	}
}

func TestProtectNarrows(t *testing.T) {
	f := newFixture(2)
	pm := f.mmu.NewPmap("p")
	pg := f.page(t)
	pm.Enter(va0, pg, param.ProtRW, false)
	pm.Protect(va0, va0+param.PageSize, param.ProtRead)
	pte, _ := pm.Lookup(va0)
	if pte.Prot != param.ProtRead {
		t.Fatalf("prot = %v, want r--", pte.Prot)
	}
	// Protect never widens: narrowing to RW from R keeps R.
	pm.Protect(va0, va0+param.PageSize, param.ProtRW)
	pte, _ = pm.Lookup(va0)
	if pte.Prot != param.ProtRead {
		t.Fatalf("protect widened: %v", pte.Prot)
	}
	// ProtNone removes.
	pm.Protect(va0, va0+param.PageSize, param.ProtNone)
	if _, ok := pm.Lookup(va0); ok {
		t.Fatal("ProtNone did not remove")
	}
}

func TestPageProtectAllSpaces(t *testing.T) {
	// The COW primitive: one physical page mapped by two pmaps gets
	// write-protected everywhere in one call.
	f := newFixture(2)
	p1 := f.mmu.NewPmap("parent")
	p2 := f.mmu.NewPmap("child")
	pg := f.page(t)
	p1.Enter(va0, pg, param.ProtRW, false)
	p2.Enter(va0+0x5000, pg, param.ProtRW, false)

	f.mmu.PageProtect(pg, param.ProtRead)
	a, _ := p1.Lookup(va0)
	b, _ := p2.Lookup(va0 + 0x5000)
	if a.Prot != param.ProtRead || b.Prot != param.ProtRead {
		t.Fatalf("page protect missed a space: %v %v", a.Prot, b.Prot)
	}

	f.mmu.PageProtect(pg, param.ProtNone)
	if p1.ResidentCount() != 0 || p2.ResidentCount() != 0 {
		t.Fatal("ProtNone left mappings behind")
	}
	if f.mmu.pageMappings(pg) != 0 {
		t.Fatal("pv list not emptied")
	}
}

func TestWiring(t *testing.T) {
	f := newFixture(2)
	pm := f.mmu.NewPmap("p")
	pg := f.page(t)
	pm.Enter(va0, pg, param.ProtRW, true)
	if pm.wiredCount() != 1 {
		t.Fatalf("wired = %d", pm.wiredCount())
	}
	pm.ChangeWiring(va0, false)
	if pm.wiredCount() != 0 {
		t.Fatalf("unwire failed: %d", pm.wiredCount())
	}
	pm.ChangeWiring(va0, true)
	pm.ChangeWiring(va0, true) // idempotent
	if pm.wiredCount() != 1 {
		t.Fatalf("double wire counted twice: %d", pm.wiredCount())
	}
	// Replacing a wired translation with an unwired one drops the count.
	pm.Enter(va0, pg, param.ProtRW, false)
	if pm.wiredCount() != 0 {
		t.Fatalf("replace did not unwire: %d", pm.wiredCount())
	}
}

func TestPTPageAccounting(t *testing.T) {
	f := newFixture(8)
	pm := f.mmu.NewPmap("p")
	allocs, frees := 0, 0
	pm.OnPTAlloc = func() { allocs++ }
	pm.OnPTFree = func() { frees++ }

	// Two pages in the same 4MB region: one PT page.
	a, b := f.page(t), f.page(t)
	pm.Enter(0x1000, a, param.ProtRead, false)
	pm.Enter(0x2000, b, param.ProtRead, false)
	if pm.PTPages() != 1 || allocs != 1 {
		t.Fatalf("PT pages = %d, allocs = %d", pm.PTPages(), allocs)
	}
	// A page in a different region: second PT page.
	c := f.page(t)
	pm.Enter(0x40000000, c, param.ProtRead, false)
	if pm.PTPages() != 2 || allocs != 2 {
		t.Fatalf("PT pages = %d, allocs = %d", pm.PTPages(), allocs)
	}
	// Removing one of two pages in the region keeps the PT page.
	pm.Remove(0x1000, 0x2000)
	if pm.PTPages() != 2 || frees != 0 {
		t.Fatalf("PT page freed early: %d frees=%d", pm.PTPages(), frees)
	}
	pm.Remove(0x2000, 0x3000)
	if pm.PTPages() != 1 || frees != 1 {
		t.Fatalf("PT page not freed: %d frees=%d", pm.PTPages(), frees)
	}
}

func TestRemoveAll(t *testing.T) {
	f := newFixture(8)
	pm := f.mmu.NewPmap("p")
	for i := 0; i < 5; i++ {
		pm.Enter(va0+param.VAddr(i)*param.PageSize, f.page(t), param.ProtRW, i == 0)
	}
	pm.RemoveAll()
	if pm.ResidentCount() != 0 || pm.wiredCount() != 0 || pm.PTPages() != 0 {
		t.Fatalf("teardown incomplete: res=%d wired=%d pt=%d",
			pm.ResidentCount(), pm.wiredCount(), pm.PTPages())
	}
}

func TestSharedPageAcrossSpaces(t *testing.T) {
	f := newFixture(2)
	p1 := f.mmu.NewPmap("a")
	p2 := f.mmu.NewPmap("b")
	pg := f.page(t)
	p1.Enter(va0, pg, param.ProtRW, false)
	p2.Enter(va0, pg, param.ProtRead, false)
	if f.mmu.pageMappings(pg) != 2 {
		t.Fatalf("pv count = %d", f.mmu.pageMappings(pg))
	}
	p1.Remove(va0, va0+param.PageSize)
	if f.mmu.pageMappings(pg) != 1 {
		t.Fatalf("pv count after one removal = %d", f.mmu.pageMappings(pg))
	}
	pte, ok := p2.Lookup(va0)
	if !ok || pte.Page != pg {
		t.Fatal("other space's mapping disturbed")
	}
}
