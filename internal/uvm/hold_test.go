package uvm

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// holdStates are the states of the page at holdSetup's va+i*PageSize:
// written and resident; never touched (a zero-fill fault); written and
// paged out; not mapped at all.
var holdStates = []string{"resident", "nonresident", "swapped", "unmapped"}

// holdSetup boots a small machine and maps one page per holdStates entry,
// each left in its state.
func holdSetup(t *testing.T) (*System, *vmapi.Machine, *Process, param.VAddr) {
	t.Helper()
	s, m := bootTest(t, 64)
	p := newProc(t, s, "holder")
	va, err := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	for _, i := range []int{0, 2} {
		if err == nil {
			err = p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{0xA0 + byte(i)})
		}
	}
	if err == nil {
		err = p.Munmap(va+3*param.PageSize, param.PageSize)
	}
	if err != nil {
		t.Fatal(err)
	}
	pte, _ := p.pm.Lookup(va + 2*param.PageSize)
	m.MMU.PageProtect(pte.Page, param.ProtNone)
	pte.Page.Referenced.Store(false)
	m.Mem.Deactivate(pte.Page)
	if freed, _ := s.reclaimScan(1, false); freed != 1 || p.mapped(va+2*param.PageSize) {
		t.Fatalf("paged out %d pages, not the swapped one", freed)
	}
	return s, m, p, va
}

// TestHoldPageTable drives holdPage, the one hold-the-page body, with the
// per-page step of each kernel path that uses it, over every state of
// holdStates. A resident page is held without a fault; a page that is
// not resident takes exactly one fault and the step runs inside it, with
// the map locked; a swapped-out page takes one fault and one pagein
// command; an unmapped address fails with ErrFault and the step never
// runs. Whenever the step runs, a TryLock on the page's owner fails, and
// after holdPage returns it succeeds. Then the caller's public call, on a
// fresh machine, must fail with ErrFault over all four pages — Loanout
// giving back the loans it took on the first three — and succeed over the
// first three.
func TestHoldPageTable(t *testing.T) {
	callers := []struct {
		name string
		step func(*System, *phys.Page)
		call func(p *Process, va param.VAddr, n int) error
	}{
		{"Loanout", (*System).loanPage, func(p *Process, va param.VAddr, n int) error { _, err := p.Loanout(va, n); return err }},
		{"Sysctl", (*System).wirePage, func(p *Process, va param.VAddr, n int) error { return p.Sysctl(va, param.VSize(n)*param.PageSize) }},
		{"Mlock", (*System).wirePage, func(p *Process, va param.VAddr, n int) error { return p.Mlock(va, param.VSize(n)*param.PageSize) }},
	}
	want := []struct {
		faults, reads int64
		data          byte
		err           error
	}{{0, 0, 0xA0, nil}, {1, 0, 0, nil}, {1, 1, 0xA2, nil}, {1, 0, 0, vmapi.ErrFault}}
	for _, c := range callers {
		s, m, p, va := holdSetup(t)
		for i, st := range holdStates {
			w := want[i]
			t.Run(c.name+"/"+st, func(t *testing.T) {
				faults0, reads0 := m.Stats.Get(sim.CtrFaults), m.Stats.Get(sim.CtrDiskReads)
				var held *phys.Page
				var ran, faultsIn int64
				var ownerFree, mapFree bool
				err := p.holdPage(va+param.VAddr(i)*param.PageSize, param.ProtRead, func(pg *phys.Page) {
					ran++
					held, faultsIn = pg, m.Stats.Get(sim.CtrFaults)-faults0
					if a := pg.Owner().(*anon); a.mu.TryLock() {
						ownerFree = true
						a.mu.Unlock()
					}
					if mapFree = p.m.mu.TryLock(); mapFree {
						p.m.mu.Unlock()
					}
					c.step(s, pg)
				})
				faults, reads := m.Stats.Get(sim.CtrFaults)-faults0, m.Stats.Get(sim.CtrDiskReads)-reads0
				switch {
				case err != w.err:
					t.Fatalf("holdPage: %v, want %v", err, w.err)
				case faults != w.faults || reads != w.reads:
					t.Errorf("%d faults and %d read commands, want %d and %d", faults, reads, w.faults, w.reads)
				case err != nil && ran != 0:
					t.Errorf("the step ran %d times on an unmapped address", ran)
				case err != nil:
				case ran != 1:
					t.Errorf("the step ran %d times, want once", ran)
				case ownerFree:
					t.Error("the step ran without the page's owner lock held")
				case faultsIn != w.faults || mapFree == (w.faults > 0):
					t.Errorf("the step ran after %d faults, map free %v", faultsIn, mapFree)
				case held.Data()[0] != w.data:
					t.Errorf("the held page holds %#x, want %#x", held.Data()[0], w.data)
				case held.Owner().(*anon).mu.TryLock():
					held.Owner().(*anon).mu.Unlock()
				default:
					t.Error("the owner lock is still held after holdPage returned")
				}
			})
		}

		_, _, p, va = holdSetup(t)
		if err := c.call(p, va, 4); err != vmapi.ErrFault {
			t.Fatalf("%s over an unmapped page: %v, want ErrFault", c.name, err)
		}
		for i := range 3 {
			if pte, _ := p.pm.Lookup(va + param.VAddr(i)*param.PageSize); pte.Page.Loaned() {
				t.Errorf("%s kept a loan on page %d after failing", c.name, i)
			}
		}
		if err := c.call(p, va, 3); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
