package bsdvm

import (
	"uvm/internal/param"
	"uvm/internal/pmap"
	"uvm/internal/vmapi"
	"uvm/internal/vmmap"
)

// entry is a vm_map_entry: one record of a mapping in a map.
type entry struct {
	vmmap.Link[entry]
	obj *object       // backing memory object (nil for placeholder entries)
	off param.PageOff // offset of Start within obj

	prot, maxProt param.Prot
	inherit       param.Inherit
	advice        param.Advice
	wired         int

	// cow marks a copy-on-write mapping; needsCopy defers the shadow
	// object allocation until the first fault (§5.1).
	cow, needsCopy bool

	// placeholder entries record kernel bookkeeping (i386 page-table
	// wirings) rather than user mappings; they never satisfy faults.
	placeholder bool
}

// Shift implements vmmap.Entry.
func (e *entry) Shift(n int) { e.off += param.PageOff(n) << param.PageShift }

// pageIndex returns the object page index backing va within this entry.
func (e *entry) pageIndex(va param.VAddr) int {
	return param.OffToPage(e.off) + int((param.Trunc(va)-e.Start)>>param.PageShift)
}

// vmMap is a vm_map: the sorted entry list describing one address space
// (a process' or the kernel's). In a process map, the entries past
// AllocMax are page-table placeholders.
type vmMap struct {
	vmmap.Map[entry, *entry]
	sys    *System
	kernel bool

	pmap *pmap.Pmap
}

func (s *System) newMap(name string, min, max param.VAddr, kernel bool) *vmMap {
	m := &vmMap{sys: s, kernel: kernel, pmap: s.mach.MMU.NewPmap(name)}
	m.Map = vmmap.New(name, min, max, s.mach.Clock, s.mach.Costs, m.dup)
	return m
}

// lock charges the simulated map-lock acquisition. Nothing is held:
// the system's big lock already serialises every bsdvm call.
func (m *vmMap) lock() {
	m.sys.mach.Clock.Advance(m.sys.mach.Costs.LockAcquire)
}

// allocEntry allocates a map entry; kernel map entries come from a fixed
// pool whose exhaustion is fatal (§3.2).
func (s *System) allocEntry(m *vmMap) *entry {
	if m.kernel {
		if s.kentryUse >= s.cfg.KernelEntryPool {
			panic("bsdvm: kernel map entry pool exhausted — system panic")
		}
		s.kentryUse++
	}
	s.mach.Clock.Advance(s.mach.Costs.MapEntryAlloc)
	s.mach.Stats.BsdEntryAlloc.Inc()
	s.mach.Stats.BsdEntryLive.Inc()
	return &entry{inherit: param.InheritCopy, advice: param.AdviceNormal}
}

func (s *System) freeEntry(m *vmMap, e *entry) {
	if m.kernel {
		s.kentryUse--
	}
	s.mach.Clock.Advance(s.mach.Costs.MapEntryFree)
	s.mach.Stats.BsdEntryLive.Add(-1)
}

// dup is the allocating half of a clip: a copy of e holding its own
// reference to e's object.
func (m *vmMap) dup(e *entry) *entry {
	d := m.sys.allocEntry(m)
	*d = *e
	if e.obj != nil {
		e.obj.refs++
	}
	return d
}

// unmapRange is BSD VM's single-phase unmap: with the map locked, entries
// are unlinked, their pmap translations removed, AND their object
// references dropped — including any pageout I/O object teardown triggers.
// The paper's §3.1 point is precisely that this last step does not need
// the lock but holds it anyway. Caller holds the map lock.
func (m *vmMap) unmapRange(start, end param.VAddr) {
	removed := m.EntriesIn(start, end)
	for _, e := range removed {
		m.Unlink(e)
		m.pmap.Remove(e.Start, e.End)
		if e.obj != nil {
			// Reference dropped under the map lock (single phase).
			m.sys.deallocate(e.obj)
		}
		m.sys.freeEntry(m, e)
	}
}

// protect is the second step of BSD VM's two-step mapping, and the
// implementation of mprotect: relock, re-find, clip, modify.
func (m *vmMap) protect(start, end param.VAddr, prot param.Prot) error {
	m.lock()
	entries := m.EntriesIn(start, end)
	if len(entries) == 0 {
		return vmapi.ErrFault
	}
	for _, e := range entries {
		if !e.maxProt.Allows(prot) {
			return vmapi.ErrInvalid
		}
		e.prot = prot
		m.pmap.Protect(e.Start, e.End, prot)
	}
	return nil
}
