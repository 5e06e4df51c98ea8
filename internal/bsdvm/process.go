package bsdvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// ptRegionBase is where i386 page-table placeholder entries are recorded
// in a BSD VM process map (§3.2: under BSD the wired state of page-table
// memory is stored in the user process' map as well as the pmap).
const ptRegionBase = param.UserMax

// ptRegionSize bounds the placeholder area.
const ptRegionSize = param.VAddr(64 << 20)

// process is a BSD VM process: a vmspace (map + pmap) plus the kernel-side
// allocations the VM system makes on its behalf.
type process struct {
	sys  *System
	name string

	m  *vmMap
	pm *pmap.Pmap

	exited bool
	// vforked marks a child sharing its parent's address space: teardown
	// at exit releases only the per-process kernel state.
	vforked bool

	// ustruct: the kernel map ranges wired for the user structure and
	// kernel stack — two kernel map entries per process (§3.2).
	ustruct []struct {
		va    param.VAddr
		pages int
	}

	// i386 page-table placeholder entries currently in the map.
	ptEntries []*entry
	nextPT    param.VAddr
	ptFreeVAs []param.VAddr
}

// NewProcess implements vmapi.System.
func (s *System) NewProcess(name string) (vmapi.Process, error) {
	s.big.Lock()
	defer s.big.Unlock()
	return s.newProcessLocked(name)
}

func (s *System) newProcessLocked(name string) (*process, error) {
	p := &process{sys: s, name: name}
	p.m = s.newMap(name, param.UserTextBase, ptRegionBase+ptRegionSize, false)
	p.m.AllocMax = param.UserMax
	p.pm = p.m.pmap
	p.nextPT = ptRegionBase

	// i386 page-table wiring is recorded in the process map under BSD VM.
	p.pm.OnPTAlloc = func() { p.addPTEntry() }
	p.pm.OnPTFree = func() { p.removePTEntry() }

	// The user structure and kernel stack: wired kernel memory, one
	// kernel map entry each. Claiming and clearing the pages costs the
	// same as under UVM; the map entries are the BSD-specific part.
	s.mach.Clock.ChargeN(4, s.mach.Costs.PageAlloc)
	s.mach.Clock.ChargeN(4, s.mach.Costs.PageZero)
	for _, pages := range []int{2, 2} {
		va, err := s.kernelAllocLocked(pages, param.ProtRW)
		if err != nil {
			return nil, err
		}
		p.ustruct = append(p.ustruct, struct {
			va    param.VAddr
			pages int
		}{va, pages})
	}
	s.procs[p] = struct{}{}
	s.mach.Stats.BsdProcCreated.Inc()
	return p, nil
}

func (p *process) addPTEntry() {
	var va param.VAddr
	if n := len(p.ptFreeVAs); n > 0 {
		va = p.ptFreeVAs[n-1]
		p.ptFreeVAs = p.ptFreeVAs[:n-1]
	} else {
		va = p.nextPT
		p.nextPT += param.PageSize
	}
	e := p.sys.allocEntry(p.m)
	e.Start, e.End = va, va+param.PageSize
	e.prot, e.maxProt = param.ProtRW, param.ProtRW
	e.wired = 1
	e.placeholder = true
	p.m.Insert(e)
	p.ptEntries = append(p.ptEntries, e)
}

func (p *process) removePTEntry() {
	n := len(p.ptEntries)
	if n == 0 {
		return
	}
	e := p.ptEntries[n-1]
	p.ptEntries = p.ptEntries[:n-1]
	p.m.Unlink(e)
	p.ptFreeVAs = append(p.ptFreeVAs, e.Start)
	p.sys.freeEntry(p.m, e)
}

// Name implements vmapi.Process.
func (p *process) Name() string { return p.name }

// Exited implements vmapi.Process.
func (p *process) Exited() bool { return p.exited }

// MapEntryCount implements vmapi.Process.
func (p *process) MapEntryCount() int {
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	return p.m.Len()
}

// Mincore implements vmapi.Process: per-page residency of the range.
func (p *process) Mincore(addr param.VAddr, length param.VSize) ([]bool, error) {
	if p.exited {
		return nil, vmapi.ErrExited
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	return vmapi.Mincore(addr, length, func(va param.VAddr) bool {
		_, ok := p.pm.Lookup(va)
		return ok
	})
}

// Mmap implements vmapi.Process using BSD VM's two-step process: the
// mapping is first established with the system's *default* attributes
// (read-write protection), then — if the caller wanted anything else — the
// map is relocked, the entry found again and clipped, and the attribute
// changed (§3.1). Between the steps the mapping is briefly live at
// read-write: the security window the paper describes.
func (p *process) Mmap(addr param.VAddr, length param.VSize, prot param.Prot,
	flags vmapi.MapFlags, vn *vfs.Vnode, off param.PageOff) (param.VAddr, error) {

	if p.exited {
		return 0, vmapi.ErrExited
	}
	length, err := vmapi.MmapArgs(addr, length, flags, vn, off)
	if err != nil {
		return 0, err
	}

	s := p.sys
	s.big.Lock()
	defer s.big.Unlock()

	// ---- Step 1: establish the mapping with default attributes. ----
	m := p.m
	m.lock()
	var va param.VAddr
	if flags&vmapi.MapFixed != 0 {
		m.unmapRange(addr, addr+param.VAddr(length))
		va = addr
	} else {
		va, err = m.FindSpace(addr, length)
		if err != nil {
			return 0, err
		}
	}

	var obj *object
	private := flags&vmapi.MapPrivate != 0
	if flags&vmapi.MapAnon != 0 {
		// BSD VM allocates the anonymous object eagerly (§5.1).
		obj = s.newObject(param.Pages(length), true)
	} else {
		obj = s.vnodeObject(vn)
	}

	e := s.allocEntry(m)
	e.Start, e.End = va, va+param.VAddr(length)
	e.obj = obj
	e.off = off
	e.prot = param.ProtRW // the default protection, not the requested one
	e.maxProt = param.ProtRWX
	if private {
		e.inherit = param.InheritCopy
	} else {
		e.inherit = param.InheritShare
	}
	if private && vn != nil {
		e.cow, e.needsCopy = true, true
	}
	m.Insert(e)

	// ---- Step 2: fix up non-default attributes with a second pass. ----
	if prot != param.ProtRW {
		if err := m.protect(va, va+param.VAddr(length), prot); err != nil {
			return 0, err
		}
	}
	return va, nil
}

// Munmap implements vmapi.Process. BSD VM's unmap is single-phase: the
// map stays locked while entries are removed AND while the object
// references are dropped, including any I/O that teardown triggers (§3.1).
func (p *process) Munmap(addr param.VAddr, length param.VSize) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || !param.PageAligned(addr) || length == 0 {
		return vmapi.ErrInvalid
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	m := p.m
	m.lock()
	m.unmapRange(start, end)
	return nil
}

// Mprotect implements vmapi.Process.
func (p *process) Mprotect(addr param.VAddr, length param.VSize, prot param.Prot) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.MappedRange(addr, length)
	if err != nil {
		return err
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	return p.m.protect(start, end, prot)
}

// Minherit implements vmapi.Process.
func (p *process) Minherit(addr param.VAddr, length param.VSize, inh param.Inherit) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	m := p.m
	m.lock()
	for _, e := range m.EntriesIn(start, end) {
		e.inherit = inh
	}
	return nil
}

// Madvise implements vmapi.Process. (BSD VM stores the advice but its
// fault handler does not use it — no lookahead.)
func (p *process) Madvise(addr param.VAddr, length param.VSize, adv param.Advice) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	m := p.m
	m.lock()
	for _, e := range m.EntriesIn(start, end) {
		e.advice = adv
	}
	return nil
}

// Msync implements vmapi.Process: modified pages of file mappings in the
// range are written back — one page, one I/O.
func (p *process) Msync(addr param.VAddr, length param.VSize) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	m := p.m
	m.lock()
	for cur := range m.All() {
		if cur.End <= start || cur.Start >= end || cur.obj == nil || cur.obj.vnode == nil {
			continue
		}
		// Flush only the object pages the requested range maps.
		lo, hi := max(cur.Start, start), min(cur.End, end)
		loIdx, hiIdx := cur.pageIndex(lo), cur.pageIndex(hi-1)
		// In ascending index order: the write order decides the disk
		// head's path, and so the simulated time.
		for idx, pg := range cur.obj.pages.Range(loIdx, hiIdx) {
			if !pg.Dirty.Load() {
				continue
			}
			if err := cur.obj.vnode.WriteBlocks(idx, [][]byte{pg.Freeze()}); err != nil {
				return err
			}
			pg.Dirty.Store(false)
		}
	}
	return nil
}

// wireRange wires [addr, end) the BSD VM way: the range's entries are
// clipped (fragmenting the map — permanently), their wired counts raised,
// and the pages faulted in and wired. On failure it puts back the wired
// counts and unwires the pages it wired, so a failed call leaves nothing
// wired; the clipping stays.
func (p *process) wireRange(addr, end param.VAddr) error {
	m := p.m
	m.lock()
	entries := m.EntriesIn(addr, end)
	if len(entries) == 0 {
		return vmapi.ErrFault
	}
	for _, e := range entries {
		e.wired++
	}

	for va := addr; va < end; va += param.PageSize {
		if _, ok := p.pm.Lookup(va); !ok {
			if err := p.sys.fault(p, va, param.ProtRead); err != nil {
				p.unwireEntries(addr, end)
				p.unwirePages(addr, va)
				return err
			}
		}
		pte, _ := p.pm.Lookup(va)
		if pte.Page != nil {
			pte.Page.WireCount.Add(1)
			p.sys.mach.Mem.Dequeue(pte.Page)
		}
		p.pm.ChangeWiring(va, true)
	}
	return nil
}

// unwireRange reverses wireRange — but the entry fragmentation it caused
// is never repaired.
func (p *process) unwireRange(addr, end param.VAddr) {
	p.unwireEntries(addr, end)
	p.unwirePages(addr, end)
}

// unwireEntries drops one wiring from each map entry in [addr, end).
func (p *process) unwireEntries(addr, end param.VAddr) {
	m := p.m
	m.lock()
	for _, e := range m.EntriesIn(addr, end) {
		if e.wired > 0 {
			e.wired--
		}
	}
}

// unwirePages drops one wiring from each resident page in [addr, end).
func (p *process) unwirePages(addr, end param.VAddr) {
	for va := addr; va < end; va += param.PageSize {
		if pte, ok := p.pm.Lookup(va); ok && pte.Page != nil && pte.Page.WireCount.Load() > 0 {
			pte.Page.WireCount.Add(-1)
			if pte.Page.WireCount.Load() == 0 {
				p.sys.mach.Mem.Activate(pte.Page)
			}
		}
		p.pm.ChangeWiring(va, false)
	}
}

// Mlock implements vmapi.Process.
func (p *process) Mlock(addr param.VAddr, length param.VSize) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.MappedRange(addr, length)
	if err != nil {
		return err
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	return p.wireRange(start, end)
}

// Munlock implements vmapi.Process.
func (p *process) Munlock(addr param.VAddr, length param.VSize) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	p.unwireRange(start, end)
	return nil
}

// Sysctl implements vmapi.Process: BSD wires the user's buffer *in the
// process map* for the duration of the call (§3.2), fragmenting it. The
// kernel copies the result out to the wired buffer.
func (p *process) Sysctl(addr param.VAddr, length param.VSize) error {
	return p.withBufferWired(addr, length, func(pages int) {
		p.sys.mach.Clock.ChargeN(pages, p.sys.mach.Costs.PageTouch)
	})
}

// Physio implements vmapi.Process: raw device I/O into a user buffer,
// which BSD likewise wires through the process map.
func (p *process) Physio(addr param.VAddr, length param.VSize) error {
	return p.withBufferWired(addr, length, func(pages int) {
		p.sys.mach.Clock.Advance(p.sys.mach.Costs.DiskOp)
		p.sys.mach.Clock.ChargeN(pages, p.sys.mach.Costs.DiskPageIO)
	})
}

// withBufferWired runs op on the pages of a user buffer while they are
// wired through the process map.
func (p *process) withBufferWired(addr param.VAddr, length param.VSize, op func(pages int)) error {
	if p.exited {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.MappedRange(addr, length)
	if err != nil {
		return err
	}
	p.sys.big.Lock()
	defer p.sys.big.Unlock()
	if err := p.wireRange(start, end); err != nil {
		return err
	}
	op(param.Pages(param.VSize(end - start)))
	p.unwireRange(start, end)
	return nil
}

// Fork implements vmapi.Process: the child's address space is built from
// the parent's entries per their inheritance attributes. Copy-inherited
// ranges get needs-copy set in both processes and the parent's resident
// pages write-protected (§5.1, Figure 3).
func (p *process) Fork(name string) (vmapi.Process, error) {
	if p.exited {
		return nil, vmapi.ErrExited
	}
	s := p.sys
	s.big.Lock()
	defer s.big.Unlock()

	child, err := s.newProcessLocked(name)
	if err != nil {
		return nil, err
	}
	pm, cm := p.m, child.m
	pm.lock()
	cm.lock()
	for e := range pm.All() {
		if e.placeholder || e.inherit == param.InheritNone {
			continue
		}
		ce := cm.dup(e)
		ce.wired = 0
		if e.inherit == param.InheritCopy && e.obj != nil {
			e.cow, e.needsCopy = true, true
			ce.cow, ce.needsCopy = true, true
			// Write-protect the parent's resident pages so its next
			// store faults (the per-page fork overhead both systems
			// pay, §5.3).
			p.pm.Protect(e.Start, e.End, e.prot&^param.ProtWrite)
		}
		cm.Insert(ce)
	}
	s.mach.Stats.BsdForks.Inc()
	return child, nil
}

// Vfork implements vmapi.Process: the child shares the parent's map and
// pmap outright; only the user structure and kernel stack are new.
func (p *process) Vfork(name string) (vmapi.Process, error) {
	if p.exited {
		return nil, vmapi.ErrExited
	}
	if p.vforked {
		return nil, vmapi.ErrInvalid
	}
	s := p.sys
	s.big.Lock()
	defer s.big.Unlock()
	child, err := s.newProcessLocked(name)
	if err != nil {
		return nil, err
	}
	child.m = p.m
	child.pm = p.pm
	child.vforked = true
	s.mach.Stats.BsdVForks.Inc()
	return child, nil
}

// Exit implements vmapi.Process: the whole address space is torn down —
// with the map lock held throughout, BSD style.
func (p *process) Exit() {
	if p.exited {
		return
	}
	s := p.sys
	s.big.Lock()
	defer s.big.Unlock()

	if !p.vforked {
		m := p.m
		m.lock()
		m.unmapRange(param.UserTextBase, param.UserMax)

		// Tear down remaining translations; page-table placeholder
		// entries unwind through the pmap hooks.
		p.pm.RemoveAll()
		for len(p.ptEntries) > 0 {
			p.removePTEntry()
		}
	}

	// Release the user structure and kernel stack.
	s.kmap.lock()
	for _, u := range p.ustruct {
		s.kmap.unmapRange(u.va, u.va+param.VAddr(u.pages)*param.PageSize)
	}
	p.ustruct = nil

	delete(s.procs, p)
	p.exited = true
	s.mach.Stats.BsdProcExited.Inc()
}

// Access implements vmapi.Process: one CPU load or store. A valid
// translation with sufficient protection is a TLB-speed touch; anything
// else is a page fault.
func (p *process) Access(addr param.VAddr, write bool) error {
	return p.access(addr, write, nil)
}

// access touches addr, faulting it in if need be. use, when non-nil, is
// the copyin/copyout tail: it runs on the page mapped at addr while the
// big lock is still held, so no other process can evict, replace or
// write to the frame between the touch and the copy.
func (p *process) access(addr param.VAddr, write bool, use func(*phys.Page)) error {
	if p.exited {
		return vmapi.ErrExited
	}
	access := param.ProtRead
	if write {
		access = param.ProtWrite
	}
	s := p.sys
	s.big.Lock()
	defer s.big.Unlock()
	if pte, ok := p.pm.Extract(addr); ok && pte.Prot.Allows(access) {
		s.mach.Clock.Advance(s.mach.Costs.PageTouch)
		pte.Page.Referenced.Store(true)
		if write {
			pte.Page.Dirty.Store(true)
		}
	} else if err := s.fault(p, addr, access); err != nil {
		return err
	}
	if use != nil {
		pte, ok := p.pm.Lookup(addr)
		if !ok || pte.Page == nil {
			return vmapi.ErrFault
		}
		use(pte.Page)
	}
	return nil
}

// TouchRange implements vmapi.Process.
func (p *process) TouchRange(addr param.VAddr, length param.VSize, write bool) error {
	return vmapi.TouchRange(addr, length, write, p.Access)
}

// ReadBytes implements vmapi.Process.
func (p *process) ReadBytes(addr param.VAddr, buf []byte) error {
	return vmapi.CopyBytes(addr, buf, false, p.access)
}

// WriteBytes implements vmapi.Process.
func (p *process) WriteBytes(addr param.VAddr, data []byte) error {
	return vmapi.CopyBytes(addr, data, true, p.access)
}
