package uvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Page loanout (§7): a process lets shared, copy-on-write copies of its
// pages be used by other processes, the I/O system, or the IPC system —
// without a data copy and without fragmenting or disrupting the map
// structures.
//
// A loaned page is made read-only in every address space; the loan is
// recorded in the page's loan count. Copy-on-write is gracefully
// preserved: if the owner writes a loaned anon page, the fault routine
// gives the owner a fresh private copy (faultAnon); if a shared object
// page on loan is written, the object receives a fresh copy and the
// loaned frame is orphaned to its borrowers (breakObjLoan). The
// pagedaemon skips loaned pages, so pageout cannot yank a loan either.
//
// Concurrency: the loan count is taken under the page owner's lock (so a
// loan cannot race a pageout or teardown of the same page), and the
// keep-or-free decision when loans drop is made under the page identity
// lock (so the last borrower and a dying owner cannot double-free the
// frame).

// Loanout loans npages pages starting at addr, faulting them resident
// first if needed. The returned pages are held by "the kernel" (the
// caller) until LoanReturn, or until they are handed onward with
// Transfer.
func (p *Process) Loanout(addr param.VAddr, npages int) ([]*phys.Page, error) {
	if p.exited.Load() {
		return nil, vmapi.ErrExited
	}
	if npages <= 0 || !param.PageAligned(addr) {
		return nil, vmapi.ErrInvalid
	}
	s := p.sys

	pages := make([]*phys.Page, 0, npages)
	for i := 0; i < npages; i++ {
		va := addr + param.VAddr(i)*param.PageSize
		loaned := false
		for attempt := 0; attempt < 16 && !loaned; attempt++ {
			pte, ok := p.pm.Lookup(va)
			if !ok || pte.Page == nil {
				if err := s.fault(p, va, param.ProtRead, nil); err != nil {
					s.unloan(pages)
					return nil, err
				}
				continue
			}
			pg := pte.Page
			release, ok := s.lockPageOwner(pg)
			if !ok {
				continue
			}
			if pte2, still := p.pm.Lookup(va); !still || pte2.Page != pg {
				release() // evicted or replaced between lookup and lock
				continue
			}
			pg.LoanCount.Add(1)
			// All mappings become read-only so any write faults and the COW
			// machinery keeps the borrowers' view stable.
			s.mach.MMU.PageProtect(pg, param.ProtRead)
			// The borrower (kernel I/O path) maps the page into its own
			// address space.
			s.mach.Clock.Advance(s.mach.Costs.PmapEnter)
			release()
			pages = append(pages, pg)
			loaned = true
		}
		if !loaned {
			s.unloan(pages)
			return nil, vmapi.ErrFault
		}
	}
	s.mach.Stats.Add(sim.CtrLoanouts, int64(len(pages)))
	return pages, nil
}

// LoanReturn ends a loan obtained from Loanout (for pages that were not
// handed onward with Transfer). Orphaned frames whose last loan drops are
// freed.
func (p *Process) LoanReturn(pages []*phys.Page) {
	p.sys.unloan(pages)
}

func (s *System) unloan(pages []*phys.Page) {
	for _, pg := range pages {
		if pg.LoanCount.Load() <= 0 {
			panic("uvm: loan count underflow")
		}
		// The borrower tears down its kernel mapping of the page.
		s.mach.Clock.Advance(s.mach.Costs.PmapRemove)
		freeIt := false
		pg.WithIdentity(func(owner any) {
			if pg.LoanCount.Add(-1) == 0 && owner == nil {
				freeIt = true
			}
		})
		if freeIt {
			s.mach.MMU.PageProtect(pg, param.ProtNone)
			s.mach.Mem.Free(pg)
		}
	}
}

// breakObjLoan replaces a loaned object page with a fresh copy owned by
// the object, orphaning the loaned frame to its borrowers. Caller holds
// o.mu; the lock is dropped around the allocation (see
// allocObjPageLocked) and retry=true is returned if the page changed
// while it was released.
func (s *System) breakObjLoan(o *uobject, idx int, pg *phys.Page) (*phys.Page, bool, error) {
	o.mu.Unlock()
	np, err := s.allocPage(noHome, o, param.PageToOff(idx), false)
	o.mu.Lock()
	if err != nil {
		return nil, false, err
	}
	if cur, ok := o.pages[idx]; !ok || cur != pg || !pg.Loaned() {
		s.mach.Mem.Free(np)
		return nil, true, nil
	}
	s.mach.Mem.CopyData(np, pg)
	np.Dirty.Store(pg.Dirty.Load())
	// Detach the loaned frame from the object; it now belongs to nobody
	// and survives only for its borrowers. If the last loan was returned
	// while we were copying, the orphan is already unreachable — free it.
	s.mach.MMU.PageProtect(pg, param.ProtNone)
	s.mach.Mem.Dequeue(pg)
	freeIt := false
	pg.WithIdentity(func(any) {
		pg.Orphan()
		freeIt = pg.LoanCount.Load() == 0
	})
	if freeIt {
		s.mach.Mem.Free(pg)
	}
	o.pages[idx] = np
	s.mach.Mem.Activate(np)
	s.mach.Stats.Inc("uvm.loan.broken")
	return np, false, nil
}

// AllocKernelPages allocates n free-standing, owner-less pages filled by
// fill — modelling data produced by the kernel or arriving from a device
// (the source side of a page transfer). The pages are wired until
// transferred or freed.
func (s *System) AllocKernelPages(n int, fill func(idx int, buf []byte)) ([]*phys.Page, error) {
	pages := make([]*phys.Page, 0, n)
	for i := 0; i < n; i++ {
		pg, err := s.allocPage(noHome, nil, 0, fill == nil)
		if err != nil {
			for _, q := range pages {
				q.WireCount.Store(0)
				s.mach.Mem.Free(q)
			}
			return nil, err
		}
		pg.WireCount.Store(1)
		if fill != nil {
			fill(i, pg.Data)
		}
		pages = append(pages, pg)
	}
	return pages, nil
}
