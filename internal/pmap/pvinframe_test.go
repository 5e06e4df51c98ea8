package pmap

import (
	"fmt"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
)

// TestPVInFrameTable is the table test for the in-frame pv lists: one
// frame mapped 1, 2 or 5 times (once per pmap, so the first pmap holds
// the inline entry and the rest sit in the overflow), then one operation
// on the mapping of a victim pmap — the inline holder or the last
// overflow entry — or on the page. Every cell asserts pageMappings, every
// pmap's Lookup, the pv <-> page-table inverse, and that the frame, once
// unmapped and freed, carries no pv entry into its next owner.
func TestPVInFrameTable(t *testing.T) {
	type cell struct {
		op string
		// run applies the operation; victim is the pmap whose mapping of
		// pg it targets, other a second frame for replace-by-Enter.
		run func(f *fixture, pms []*Pmap, victim int, pg, other *phys.Page)
		// gone reports whether pmap i's translation of pg is gone
		// afterwards; prot is the protection the survivors carry.
		gone func(i, victim int) bool
		prot param.Prot
		// perVictim: the operation targets one pmap's mapping (run the
		// cell for the inline holder and for the last overflow entry).
		perVictim bool
	}
	none := func(int, int) bool { return false }
	all := func(int, int) bool { return true }
	victimOnly := func(i, victim int) bool { return i == victim }
	cells := []cell{
		{op: "Enter", run: func(*fixture, []*Pmap, int, *phys.Page, *phys.Page) {}, gone: none, prot: param.ProtRW},
		{op: "replace-by-Enter", perVictim: true, gone: victimOnly, prot: param.ProtRW,
			run: func(f *fixture, pms []*Pmap, v int, pg, other *phys.Page) {
				pms[v].Enter(va0, other, param.ProtRW, false)
			}},
		{op: "Remove", perVictim: true, gone: victimOnly, prot: param.ProtRW,
			run: func(f *fixture, pms []*Pmap, v int, pg, other *phys.Page) {
				pms[v].Remove(va0, va0+param.PageSize)
			}},
		{op: "RemoveBatch", perVictim: true, gone: victimOnly, prot: param.ProtRW,
			run: func(f *fixture, pms []*Pmap, v int, pg, other *phys.Page) {
				pms[v].RemoveBatch(va0, va0+param.PageSize)
			}},
		{op: "PageProtect(RO)", gone: none, prot: param.ProtRead,
			run: func(f *fixture, pms []*Pmap, v int, pg, other *phys.Page) {
				f.mmu.PageProtect(pg, param.ProtRead)
			}},
		{op: "PageProtect(None)", gone: all,
			run: func(f *fixture, pms []*Pmap, v int, pg, other *phys.Page) {
				f.mmu.PageProtect(pg, param.ProtNone)
			}},
	}
	for _, n := range []int{1, 2, 5} {
		for _, c := range cells {
			victims := []int{0}
			if c.perVictim && n > 1 {
				victims = append(victims, n-1)
			}
			for _, victim := range victims {
				name := fmt.Sprintf("%d-mappings/%s", n, c.op)
				if c.perVictim && victim == 0 {
					name += "/inline"
				} else if c.perVictim {
					name += "/overflow"
				}
				t.Run(name, func(t *testing.T) {
					f := newFixture(8)
					pg, other := f.page(t), f.page(t)
					pms := make([]*Pmap, n)
					for i := range pms {
						pms[i] = f.mmu.NewPmap(fmt.Sprintf("as%d", i))
						pms[i].Enter(va0, pg, param.ProtRW, false)
					}
					c.run(f, pms, victim, pg, other)

					want, wantOther := 0, 0
					if c.op == "replace-by-Enter" {
						wantOther = 1
					}
					for i, pm := range pms {
						pte, ok := pm.Lookup(va0)
						switch {
						case !c.gone(i, victim):
							want++
							if !ok || pte.Page != pg || pte.Prot != c.prot {
								t.Errorf("%v: translation = (%v, mapped=%v), want the frame with prot %v", pm, pte, ok, c.prot)
							}
						case wantOther == 1:
							if !ok || pte.Page != other {
								t.Errorf("%v: translation = (%v, mapped=%v), want the replacement frame", pm, pte, ok)
							}
						case ok:
							t.Errorf("%v: translation %v survived", pm, pte)
						}
					}
					if got := f.mmu.pageMappings(pg); got != want {
						t.Errorf("pageMappings = %d, want %d", got, want)
					}
					if got := f.mmu.pageMappings(other); got != wantOther {
						t.Errorf("pageMappings(replacement) = %d, want %d", got, wantOther)
					}
					checkInverse(t, f, pms)

					// Unmap and free both frames: whoever owns them next
					// starts with an empty pv list, spare capacity included.
					f.mmu.PageProtect(pg, param.ProtNone)
					f.mmu.PageProtect(other, param.ProtNone)
					checkInverse(t, f, pms)
					f.mem.Free(pg)
					f.mem.Free(other)
					next := f.mmu.NewPmap("next")
					for f.mem.FreePages() > 0 {
						np := f.page(t)
						if got := f.mmu.pageMappings(np); got != 0 {
							t.Errorf("frame PA=%#x was allocated carrying %d pv entries", np.PA, got)
						}
						next.Enter(va0+param.VAddr(np.PA), np, param.ProtRead, false)
						if got := f.mmu.pageMappings(np); got != 1 {
							t.Errorf("frame PA=%#x has %d mappings after its first Enter", np.PA, got)
						}
					}
					checkInverse(t, f, append(pms, next))
				})
			}
		}
	}
}
