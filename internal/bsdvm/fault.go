package bsdvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// fault resolves a page fault at va in process p (vm_fault). The
// signature BSD VM behaviours:
//
//   - the mapping's object chain is walked top-down, one charged search
//     per level, until the page is found or the chain ends;
//   - a needs-copy entry gets its shadow object allocated on the *first
//     fault of any kind* — even a read fault where none is needed yet
//     (the Table 3 read/private anomaly);
//   - a write fault that finds the page in a backing object copies it up
//     into the first object (never reassigns it, even when the backing
//     page is unreachable afterwards — the §5.3 inefficiency);
//   - an object collapse is attempted after every copy-on-write fault;
//   - exactly one page is mapped per fault: no lookahead (Table 2).
//
// Caller holds the big lock; the map lock is charged here.
func (s *System) fault(p *process, va param.VAddr, access param.Prot) error {
	s.mach.Clock.Advance(s.mach.Costs.FaultTrap)
	s.mach.Stats.Faults.Inc()
	if access.Allows(param.ProtWrite) {
		s.mach.Stats.FaultsWrite.Inc()
	} else {
		s.mach.Stats.FaultsRead.Inc()
	}

	m := p.m
	m.lock()

	e := m.Lookup(va)
	if e == nil || e.placeholder || e.obj == nil {
		return vmapi.ErrFault
	}
	if !e.prot.Allows(access) {
		return vmapi.ErrFault
	}
	write := access.Allows(param.ProtWrite)

	// Clear needs-copy by allocating a shadow object — BSD VM does this
	// on read faults too.
	if e.needsCopy {
		s.shadowEntry(e)
	}

	firstObj := e.obj
	firstIdx := e.pageIndex(va)

	// Walk the shadow chain looking for the data.
	var (
		pg       *phys.Page
		foundObj *object
	)
	obj, idx := firstObj, firstIdx
	for {
		// Each object in the chain is individually locked and searched
		// (§5.3: "each object in the chain has its own set of I/O
		// operations, its own lock...").
		s.mach.Clock.Advance(s.mach.Costs.LockAcquire)
		s.mach.Clock.Advance(s.mach.Costs.ChainSearch)
		s.mach.Stats.BsdChainWalk.Inc()
		if q, ok := obj.pages.Get(idx); ok {
			pg, foundObj = q, obj
			break
		}
		if s.pagerHas(obj, idx) {
			q, err := s.pagein(obj, idx)
			if err != nil {
				return err
			}
			pg, foundObj = q, obj
			break
		}
		if obj.shadow == nil {
			// Chain exhausted: zero-fill in the first object.
			q, err := s.allocPage(firstObj, firstIdx, true)
			if err != nil {
				return err
			}
			q.Dirty.Store(true) // anonymous content exists only in RAM now
			pg, foundObj = q, firstObj
			break
		}
		idx += obj.shadowOff
		obj = obj.shadow
	}

	prot := e.prot
	switch {
	case foundObj == firstObj:
		if write {
			pg.Dirty.Store(true)
		}
	case write && e.cow:
		// Copy the page up into the first object. BSD VM pays the page
		// allocation and copy even when the source page just became
		// unreachable (§5.3); afterwards it attempts a collapse.
		np, err := s.allocPage(firstObj, firstIdx, false)
		if err != nil {
			return err
		}
		s.mach.Mem.CopyData(np, pg)
		np.Dirty.Store(true)
		pg, foundObj = np, firstObj
		s.collapse(firstObj)
	case e.cow:
		// Read fault on data in a backing object: map it read-only so a
		// later write faults again.
		prot &^= param.ProtWrite
	case write:
		pg.Dirty.Store(true)
	}

	// Mach-style re-validation: before mapping the page the fault code
	// re-looks-up the map to confirm nothing changed while objects were
	// (potentially) unlocked for I/O — one of the operations the paper
	// notes BSD performs "multiple times at different layers" (§1.1).
	if m.Lookup(va) != e {
		return vmapi.ErrFault
	}

	pg.Referenced.Store(true)
	p.pm.Enter(param.Trunc(va), pg, prot, e.wired > 0)
	if pg.WireCount.Load() == 0 {
		s.mach.Mem.Activate(pg)
	}
	return nil
}
