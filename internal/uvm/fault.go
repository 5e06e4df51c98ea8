package uvm

import (
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/swap"
	"uvm/internal/vmapi"
)

// fault is UVM's general-purpose page fault handler (§5.4): written from
// scratch because neither the SunOS style (everything in the segment
// driver) nor the BSD VM style (mostly object-chain management) fits the
// two-level amap/object scheme.
//
// The structure is exactly the paper's: look up the faulting entry, check
// the amap layer, then the object layer, and fail if neither has the
// data. A write fault on a multiply-referenced anon copies to a fresh
// anon; a write fault on a singly-referenced anon writes in place (the
// optimisation BSD VM's chains cannot express, §5.3). After resolving the
// fault, neighbouring *resident* pages are mapped in according to the
// entry's advice (four ahead, three behind by default) to absorb future
// faults (Table 2).
//
// Locking: the map is taken shared so faults in one process run
// concurrently; it is upgraded to exclusive only when the fault must
// mutate the entry itself (clear needs-copy / allocate the amap). The
// resolved page's owner (anon or object) stays locked from resolution
// through the pmap entry, so the pagedaemon — which TryLocks owners —
// can never free a page out from under a fault in progress. use, when
// non-nil, runs on the resolved page after it is mapped and before that
// lock is released (the copyin/copyout tail, see Process.access).
func (s *System) fault(p *Process, va param.VAddr, access param.Prot, use func(*phys.Page)) error {
	s.mach.Clock.Advance(s.mach.Costs.FaultTrap)
	s.ctrFaults.Inc()
	write := access.Allows(param.ProtWrite)
	if write {
		s.ctrFaultsWrite.Inc()
	} else {
		s.ctrFaultsRead.Inc()
	}

	m := p.m
	m.rlock()
	wlocked := false
	unlockMap := func() {
		if wlocked {
			m.unlock()
		} else {
			m.runlock()
		}
	}

	e := m.lookup(va)
	if e == nil || !e.prot.Allows(access) {
		unlockMap()
		return vmapi.ErrFault
	}

	// Clear needs-copy before a write can land (amap allocation/copy),
	// and materialise the amap on the first touch of a pure zero-fill
	// mapping. Both mutate the entry, so the shared lock is upgraded to
	// exclusive and the lookup redone. Read faults on needs-copy entries
	// with a lower layer leave needs-copy alone — the data can be mapped
	// read-only straight from the lower layers (contrast with BSD VM,
	// which allocates its shadow object even on read faults).
	if (write && e.needsCopy) || (e.amap == nil && e.obj == nil) {
		m.runlock()
		m.lockNoCharge()
		wlocked = true
		e = m.lookupQuiet(va)
		if e == nil || !e.prot.Allows(access) {
			unlockMap()
			return vmapi.ErrFault
		}
		if (write && e.needsCopy) || (e.amap == nil && e.obj == nil) {
			s.amapCopy(m, e)
		}
	}

	pg, prot, owner, err := s.faultResolve(p, e, va, write)
	if err != nil {
		unlockMap()
		return err
	}
	// While needs-copy is set the amap is shared at the *amap* level
	// (anon reference counts don't see it), so nothing may be mapped
	// writable — the next write must fault and run amapCopy. Only read
	// faults can reach here with needs-copy still set.
	if e.needsCopy {
		prot &^= param.ProtWrite
	}

	pg.Referenced.Store(true)
	p.pm.Enter(param.Trunc(va), pg, prot, e.wired > 0)
	if pg.WireCount.Load() == 0 && !pg.Loaned() {
		s.mach.Mem.Activate(pg)
	}
	if use != nil {
		use(pg)
	}
	owner.Unlock()

	s.lookahead(p, e, va)
	unlockMap()
	return nil
}

// faultResolve finds (or creates) the page for va and decides the
// hardware protection to map it with. On success it returns, still
// locked, the mutex of the page's owner (its anon or object): the caller
// unlocks it once it has entered the mapping.
func (s *System) faultResolve(p *Process, e *entry, va param.VAddr, write bool) (*phys.Page, param.Prot, *sync.Mutex, error) {
	for {
		// ---- Layer 1: the amap (anonymous) layer. ----
		if am := e.amap; am != nil {
			am.mu.Lock()
			if a := am.get(e.slotOf(va)); a != nil {
				return s.faultAnon(e, am, a, e.slotOf(va), write)
			}
			am.mu.Unlock()
		}

		// ---- Layer 2: the backing object layer. ----
		if o := e.obj; o != nil {
			idx := e.objIndex(va)
			// A write on a copy-on-write entry will promote the object
			// page into a fresh anon. The anon and its frame are
			// allocated before the object lock is taken so a reclaim
			// triggered by the allocation can still evict o's pages.
			var (
				na *anon
				np *phys.Page
			)
			if write && e.cow {
				var err error
				if na, np, err = s.newAnonPage(e.amap, e.slotOf(va), false); err != nil {
					return nil, 0, nil, err
				}
			}
			o.mu.Lock()
			// A busy page belongs to a writeback flush: its contents are
			// on the wire, so nothing may be mapped (a read fault would
			// map it with the entry's full protection, letting stores
			// sneak past the write-protect the flush installed) until the
			// completion clears Busy. A page that is not resident is the
			// pager's to bring in, along with whatever else it sees fit to read
			// in the entry's advice window for the lookahead below to map.
			lo, hi := e.adviceRange(idx)
			pg, err := s.objPage(o, idx, lo, hi, false)
			if err != nil {
				o.mu.Unlock()
				if na != nil {
					s.anonUnref(na)
				}
				return nil, 0, nil, err
			}
			if write && e.cow {
				// Promote the object page into a fresh anon: the object page
				// itself is never modified by a private mapping.
				s.mach.Mem.CopyData(np, pg)
				am := e.amap
				am.mu.Lock()
				if am.get(e.slotOf(va)) != nil {
					// Another fault promoted this slot first: discard our
					// copy and resolve through the amap layer instead.
					am.mu.Unlock()
					o.mu.Unlock()
					s.anonUnref(na)
					continue
				}
				if am.refs > 1 {
					// Other map entries see this amap too: the anon shadows the
					// object page for all of them, so their translations of it
					// must go before the anon is published.
					s.mach.MMU.PageProtect(pg, param.ProtNone)
				}
				am.set(e.slotOf(va), na)
				na.mu.Lock() // hold the anon across the pmap entry
				am.mu.Unlock()
				o.mu.Unlock()
				return np, e.prot, &na.mu, nil
			}
			if write {
				if pg.Loaned() {
					// Writing a shared object page that is out on loan: the
					// borrowers' view must not change. Replace the object's
					// page with a private copy and orphan the loaned frame.
					np2, retry, err := s.breakObjLoan(o, idx, pg)
					if err != nil {
						o.mu.Unlock()
						return nil, 0, nil, err
					}
					if retry {
						o.mu.Unlock()
						continue
					}
					pg = np2
				}
				pg.Dirty.Store(true)
				return pg, e.prot, &o.mu, nil
			}
			prot := e.prot
			if e.cow {
				prot &^= param.ProtWrite // future writes must fault
			}
			return pg, prot, &o.mu, nil
		}

		// ---- Layer 3: pure zero-fill (the amap was materialised before
		// resolve; the slot is empty). ----
		na, np, err := s.newAnonPage(e.amap, e.slotOf(va), true)
		if err != nil {
			return nil, 0, nil, err
		}
		am := e.amap
		am.mu.Lock()
		if am.get(e.slotOf(va)) != nil {
			// Lost a race with a concurrent fault on the same page: retry
			// and resolve through the existing anon.
			am.mu.Unlock()
			s.anonUnref(na)
			continue
		}
		am.set(e.slotOf(va), na)
		na.mu.Lock()
		am.mu.Unlock()
		return np, e.prot, &na.mu, nil
	}
}

// newAnonPage allocates a fresh anon and its frame for a fault in
// progress that will put them at slot of am. The frame is born dirty —
// anonymous content lives only in RAM until paged — and names the anon as
// its owner only once the anon points back at it: a reclaim scan working from a stale queue snapshot may
// probe the frame the moment it has an owner, and the page identity lock
// orders that probe after the attach.
func (s *System) newAnonPage(am *amap, slot int, zero bool) (*anon, *phys.Page, error) {
	na := s.newAnon(am, slot)
	np, err := s.allocPage(int(am.home), nil, 0, zero)
	if err != nil {
		return nil, nil, err
	}
	np.Dirty.Store(true)
	na.page = np
	np.SetOwner(na, 0)
	return na, np, nil
}

// faultAnon resolves a fault that hit an anon in the amap layer. Called
// with am.mu held; on success it returns the resolved page's anon mutex,
// locked, as faultResolve does.
func (s *System) faultAnon(e *entry, am *amap, a *anon, slot int, write bool) (*phys.Page, param.Prot, *sync.Mutex, error) {
	a.mu.Lock()
	if a.page == nil {
		if err := s.anonPagein(e, am, a, slot); err != nil {
			a.mu.Unlock()
			am.mu.Unlock()
			return nil, 0, nil, err
		}
	}
	pg := a.page
	if !write {
		prot := e.prot
		if a.refs > 1 || pg.Loaned() {
			prot &^= param.ProtWrite
		}
		am.mu.Unlock()
		return pg, prot, &a.mu, nil
	}
	if a.refs == 1 && !pg.Loaned() {
		// Sole owner: write in place. (BSD VM in the same situation
		// copies the page to the top shadow object — §5.3's "expensive
		// and unnecessary page allocation and data copy".)
		pg.Dirty.Store(true)
		// The swap copy (if any) is now stale.
		if a.swslot != swap.NoSlot {
			s.mach.Swap.Free(a.swslot)
			a.swslot = swap.NoSlot
		}
		am.mu.Unlock()
		return pg, e.prot, &a.mu, nil
	}
	// Copy-on-write: copy the data to a newly allocated anon and drop the
	// reference to the original (§5.2). Also the loan-break path: writing
	// to a loaned page must not disturb the borrowers.
	na, np, err := s.newAnonPage(am, slot, false)
	if err != nil {
		a.mu.Unlock()
		am.mu.Unlock()
		return nil, 0, nil, err
	}
	s.mach.Mem.CopyData(np, pg)
	if am.refs > 1 {
		// The amap's other sharers must see the replacement, not the page
		// they mapped read-only from the anon it replaces.
		s.mach.MMU.PageProtect(pg, param.ProtNone)
	}
	am.set(slot, na)
	a.mu.Unlock()
	s.anonUnref(a)
	na.mu.Lock() // hold the fresh anon across the pmap entry
	am.mu.Unlock()
	s.ctrCowCopies.Inc()
	return np, e.prot, &na.mu, nil
}

// lookaheadStack is how many neighbours lookahead collects on its own
// stack: the deepest advice window (param.AdviceSequential, 8 ahead).
const lookaheadStack = 8

// lookahead maps in resident neighbour pages around a fault (§5.4). Only
// pages already resident are touched — "this mechanism only works for
// resident pages"; nothing is paged in.
//
// The window is resolved owner-first, as a batch: under one amap lock
// acquisition (and at most one object lock acquisition) each VA of the
// window is first asked for a resident neighbour — its amap slot, else
// its object page — and only a VA that has one is then looked up in the
// pmap, to drop it if it is already mapped. A window with nothing to map
// — every fault of a fresh zero-fill region faulted front to back, as far
// as the pages ahead go — costs the one amap lock and no pmap lookup. The
// survivors enter the pmap through one Pmap.EnterBatch, which takes the
// pmap mutex and each pv bucket once for the whole window. Every
// collected page's owner (anon or object) stays locked from collection
// through the batch entry, so reclaim — which TryLocks owners — can never
// free a collected page before it is mapped. The batch and the list of
// locked anons are built in fixed-size arrays on the stack.
//
// Lookahead is opportunistic — a neighbour it cannot have cheaply is a
// neighbour skipped — so owners are acquired with TryLock only: a busy
// anon (e.g. mid-pageout, its lock held across the async cluster I/O)
// drops out instead of stalling the window. The object lock is taken
// lazily, only when some candidate actually lacks an anon: an
// amap-covered window over a file mapping never touches the shared
// object mutex at all. When the amap is held the object acquisition is
// out of the map -> object -> amap -> anon order, which is safe
// precisely because it never blocks (TryLock; on failure the
// object-layer candidates are dropped).
//
// The window is clamped to the entry underflow-safely: VAddr is
// unsigned, so base - behind*PageSize is formed only when it cannot wrap
// below e.start (an entry mapped near address zero used to push the
// behind window through the wraparound, silently skipping in-range
// behind pages).
//
// A VA whose amap slot holds an anon belongs to the anon layer whether
// or not the anon is resident: a swapped-out anon's data shadows the
// object's copy, so the object page below it is never mapped (the
// per-page path used to fall through to the object layer here and could
// map stale file data under a swapped-out private copy).
func (s *System) lookahead(p *Process, e *entry, faultVA param.VAddr) {
	ahead, behind := e.advice.Lookahead()
	if ahead == 0 && behind == 0 {
		return
	}
	base := param.Trunc(faultVA)
	lo := e.start
	if span := param.VAddr(behind) * param.PageSize; base-e.start > span {
		lo = base - span
	}
	hi := base + param.VAddr(ahead+1)*param.PageSize
	if hi > e.end {
		hi = e.end
	}

	var (
		batchBuf [lookaheadStack]pmap.BatchEntry
		anonBuf  [lookaheadStack]*anon
	)
	batch := batchBuf[:0]
	lockedAnons := anonBuf[:0]
	o := e.obj
	objHeld := false
	if am := e.amap; am != nil {
		am.mu.Lock()
		for va := lo; va < hi; va += param.PageSize {
			if va == base {
				continue
			}
			if a := am.get(e.slotOf(va)); a != nil {
				// The anon owns this VA even when swapped out — never
				// fall through to the (possibly stale) object copy
				// beneath it. A busy anon just drops out of the window.
				if !a.mu.TryLock() {
					continue
				}
				if a.page == nil || a.page.WireCount.Load() > 0 || p.mapped(va) {
					a.mu.Unlock()
					continue
				}
				prot := e.prot
				if e.needsCopy || a.refs > 1 || a.page.Loaned() {
					prot &^= param.ProtWrite
				}
				lockedAnons = append(lockedAnons, a)
				batch = append(batch, pmap.BatchEntry{VA: va, Page: a.page, Prot: prot, Wired: e.wired > 0})
				continue
			}
			if o == nil {
				continue
			}
			if !objHeld {
				// Lazy and out of lock order (the amap is held), so
				// TryLock only: failure drops the object-layer
				// candidates rather than risking a blocking cycle.
				if !o.mu.TryLock() {
					o = nil
					continue
				}
				objHeld = true // held through EnterBatch
			}
			if be, ok := s.lookaheadObjPage(p, e, o, va); ok {
				batch = append(batch, be)
			}
		}
		am.mu.Unlock()
	} else if o != nil {
		o.mu.Lock() // in order: nothing else is held
		objHeld = true
		for va := lo; va < hi; va += param.PageSize {
			if va == base {
				continue
			}
			if be, ok := s.lookaheadObjPage(p, e, o, va); ok {
				batch = append(batch, be)
			}
		}
	}

	if gate := s.lookaheadGate; gate != nil {
		gate()
	}

	if len(batch) > 0 {
		for _, be := range batch {
			be.Page.Referenced.Store(true)
		}
		p.pm.EnterBatch(batch)
		for _, be := range batch {
			// Same guard as the main fault path: loaned pages stay off
			// the paging queues.
			if be.Page.WireCount.Load() == 0 && !be.Page.Loaned() {
				s.mach.Mem.Activate(be.Page)
			}
		}
		s.ctrLookaheadMapped.Add(int64(len(batch)))
	}
	for _, a := range lockedAnons {
		a.mu.Unlock()
	}
	if objHeld {
		o.mu.Unlock()
	}
}

// mapped reports whether the process already has a translation for va.
func (p *Process) mapped(va param.VAddr) bool {
	_, ok := p.pm.Lookup(va)
	return ok
}

// lookaheadObjPage finds the resident object page for one VA of the
// lookahead window, if the VA is not mapped already. Called with o.mu
// held; the caller keeps it held until after the batched pmap entry.
func (s *System) lookaheadObjPage(p *Process, e *entry, o *uobject, va param.VAddr) (pmap.BatchEntry, bool) {
	op, ok := o.pages[e.objIndex(va)]
	if !ok || op.Busy.Load() || op.WireCount.Load() > 0 || p.mapped(va) {
		return pmap.BatchEntry{}, false
	}
	prot := e.prot
	if e.needsCopy || e.cow {
		prot &^= param.ProtWrite
	}
	return pmap.BatchEntry{VA: va, Page: op, Prot: prot, Wired: e.wired > 0}, true
}
