package uvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Page transfer (§7): pages from the I/O system, the IPC system or other
// processes are inserted into a process' address space, where they become
// ordinary anonymous memory — "indistinguishable from anonymous memory
// allocated by traditional means".
//
// Two kinds of source page are accepted:
//
//   - owner-less wired pages (from AllocKernelPages or a device): the
//     receiving anon takes ownership outright;
//   - loaned pages (from another process' Loanout): the anon inherits the
//     loan reference, giving the receiver a copy-on-write view with no
//     data copy; a later write by either side resolves through the normal
//     COW machinery.
//
// When the transfer mechanism chooses the placement address itself (addr
// hint 0), it inserts the pages without fragmenting existing entries —
// a fresh entry in a free range.

// Transfer inserts the pages into p's address space as anonymous memory
// and returns the chosen virtual address.
func (p *Process) Transfer(pages []*phys.Page, prot param.Prot) (param.VAddr, error) {
	if p.exited.Load() {
		return 0, vmapi.ErrExited
	}
	if len(pages) == 0 {
		return 0, vmapi.ErrInvalid
	}
	s := p.sys

	m := p.m
	m.lock()
	// Re-check under the map lock (see Mmap): an insert racing Exit's
	// teardown would leak the entry and its anons forever.
	if p.exited.Load() {
		m.unlock()
		return 0, vmapi.ErrExited
	}
	length := param.VSize(len(pages)) * param.PageSize
	va, err := m.findSpace(param.MmapHintBase, length)
	if err != nil {
		m.unlock()
		return 0, err
	}
	e := s.allocEntry(m)
	e.start, e.end = va, va+param.VAddr(length)
	e.prot, e.maxProt = prot, param.ProtRWX
	e.inherit = param.InheritCopy
	e.cow = true
	e.amap = s.newAmap(m.home, len(pages))

	for i, pg := range pages {
		a := s.newAnon(e.amap, i)
		a.page = pg
		if pg.LoanCount.Load() > 0 {
			// The page arrives on loan: the anon inherits the loan
			// reference held by the caller.
			a.loaned = true
		} else {
			// Free-standing kernel page: the anon takes ownership.
			pg.SetOwner(a, 0)
			pg.WireCount.Store(0)
			pg.Dirty.Store(true) // anonymous now; must reach swap if evicted
			s.mach.Mem.Activate(pg)
		}
		e.amap.set(i, a)
	}
	m.insert(e)
	m.unlock()
	s.mach.Stats.Add(sim.CtrTransfers, int64(len(pages)))
	return va, nil
}
