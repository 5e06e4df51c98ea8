package uvm

import (
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/vmapi"
	"uvm/internal/vmmap"
)

// entry is a uvm map entry: a mapping of an (amap, object) pair into a
// range of virtual addresses. Either layer pointer may be nil — a shared
// file mapping usually has a nil amap, a zero-fill mapping a nil object
// (§5.2).
type entry struct {
	vmmap.Link[entry]

	// Upper (anonymous) layer.
	amap    *amap
	amapOff int // slot within amap corresponding to start

	// Lower (backing object) layer.
	obj *uobject
	off param.PageOff // offset within obj corresponding to start

	prot, maxProt param.Prot
	inherit       param.Inherit
	advice        param.Advice
	wired         int

	// cow marks copy-on-write semantics; needsCopy defers amap
	// creation/copying until the first write fault (§5.2).
	cow, needsCopy bool
}

// Shift implements vmmap.Entry.
func (e *entry) Shift(n int) {
	e.off += param.PageOff(n) << param.PageShift
	e.amapOff += n
}

// slotOf returns the amap slot for va within this entry.
func (e *entry) slotOf(va param.VAddr) int {
	return e.amapOff + int((param.Trunc(va)-e.Start)>>param.PageShift)
}

// objIndex returns the backing-object page index for va.
func (e *entry) objIndex(va param.VAddr) int {
	return param.OffToPage(e.off) + int((param.Trunc(va)-e.Start)>>param.PageShift)
}

// adviceRange returns the backing-object page indices of the entry's
// advice window around idx (§5.4), clipped to the entry: the pages one
// fault on idx can map.
func (e *entry) adviceRange(idx int) (lo, hi int) {
	return e.adviceWindow(idx, param.OffToPage(e.off))
}

// adviceSlots is adviceRange in the amap layer: the amap slots of the
// advice window around slot, clipped to the entry.
func (e *entry) adviceSlots(slot int) (lo, hi int) {
	return e.adviceWindow(slot, e.amapOff)
}

// adviceWindow returns the advice window around i in a numbering where the
// entry's first page is first.
func (e *entry) adviceWindow(i, first int) (lo, hi int) {
	ahead, behind := e.advice.Lookahead()
	return max(i-behind, first), min(i+ahead, first+e.Pages()-1)
}

// vmMap is a uvm_map. The RWMutex is the top of the package lock order:
// mutating operations take it exclusively, the fault path takes it
// shared (upgrading only to clear needs-copy or allocate the amap), so
// faults on different pages of one process proceed concurrently with
// each other and with every other process.
type vmMap struct {
	vmmap.Map[entry, *entry]
	sys    *System
	kernel bool

	//uvm:lock map
	mu sync.RWMutex

	pmap *pmap.Pmap
	home uint8 // phys queue shard the anonymous frames of this address space come from
}

// newMap creates a map whose home is the next phys queue shard in turn, so
// address spaces created one after another allocate from different
// shards. Fork gives the child its parent's home instead.
func (s *System) newMap(name string, min, max param.VAddr, kernel bool) *vmMap {
	m := &vmMap{
		sys:    s,
		kernel: kernel,
		pmap:   s.mach.MMU.NewPmap(name),
		home:   uint8((s.maps.Add(1) - 1) % phys.NumShards),
	}
	m.Map = vmmap.New(name, min, max, s.mach.Clock, s.mach.Costs, m.dup)
	return m
}

// lock takes the map exclusively, charging the acquisition cost.
func (m *vmMap) lock() {
	m.sys.mach.Clock.Advance(m.sys.mach.Costs.LockAcquire)
	m.mu.Lock()
}

func (m *vmMap) unlock() { m.mu.Unlock() }

// rlock takes the map shared (the fault path), charging the same
// acquisition cost as an exclusive lock so simulated times do not depend
// on the locking granularity.
func (m *vmMap) rlock() {
	m.sys.mach.Clock.Advance(m.sys.mach.Costs.LockAcquire)
	m.mu.RLock()
}

func (m *vmMap) runlock() { m.mu.RUnlock() }

func (s *System) allocEntry(m *vmMap) *entry {
	if m.kernel {
		if s.kentryUse.Add(1) > kernelEntryPool {
			panic("uvm: kernel map entry pool exhausted")
		}
	}
	s.mach.Clock.Advance(s.mach.Costs.MapEntryAlloc)
	s.mach.Stats.EntryAlloc.Inc()
	s.mach.Stats.EntryLive.Inc()
	return &entry{inherit: param.InheritCopy, advice: param.AdviceNormal}
}

func (s *System) freeEntry(m *vmMap, e *entry) {
	if m.kernel {
		s.kentryUse.Add(-1)
	}
	s.mach.Clock.Advance(s.mach.Costs.MapEntryFree)
	s.mach.Stats.EntryLive.Add(-1)
}

// insertOrMerge inserts e, first trying to coalesce it into a compatible
// adjacent entry — UVM merges simple entries (no amap yet, same object
// relationship and attributes) instead of accumulating them, which keeps
// kernel maps small (Table 1's boot rows).
func (m *vmMap) insertOrMerge(e *entry) *entry {
	if prev := m.LookupQuiet(e.Start - 1); prev != nil && m.canMerge(prev, e) {
		prev.End = e.End
		m.sys.freeEntry(m, e)
		m.sys.mach.Stats.MapMerges.Inc()
		return prev
	}
	m.Insert(e)
	return e
}

// canMerge reports whether b can be folded into a (a immediately precedes
// b). Only simple anonymous entries with identical attributes merge.
func (m *vmMap) canMerge(a, b *entry) bool {
	return a.End == b.Start &&
		a.amap == nil && b.amap == nil &&
		a.obj == nil && b.obj == nil &&
		a.prot == b.prot && a.maxProt == b.maxProt &&
		a.inherit == b.inherit && a.advice == b.advice &&
		a.wired == b.wired &&
		a.cow == b.cow && a.needsCopy == b.needsCopy
}

// dup is the allocating half of a clip: a copy of e that holds its own
// references to e's amap and object.
func (m *vmMap) dup(e *entry) *entry {
	d := m.sys.allocEntry(m)
	*d = *e
	if e.obj != nil {
		m.sys.objRef(e.obj)
	}
	if e.amap != nil {
		m.sys.amapRef(e.amap)
	}
	return d
}

// unmapPhase1 is the first half of UVM's two-phase unmap (§3.1): with the
// map locked, unlink the entries and tear down their translations. The
// removed entries are returned for phase 2.
func (m *vmMap) unmapPhase1(start, end param.VAddr) []*entry {
	removed := m.EntriesIn(start, end)
	for _, e := range removed {
		m.Unlink(e)
		// Batched teardown: the pmap mutex and each pv bucket are taken
		// once per entry's window instead of once per page.
		m.pmap.RemoveBatch(e.Start, e.End)
	}
	return removed
}

// unmapPhase2 runs *after* the map lock is released: amap and object
// references are dropped — including any I/O that teardown triggers —
// without blocking other users of the map.
func (s *System) unmapPhase2(m *vmMap, removed []*entry) {
	for _, e := range removed {
		if e.amap != nil {
			s.amapUnref(e.amap)
			e.amap = nil
		}
		if e.obj != nil {
			s.objUnref(e.obj)
			e.obj = nil
		}
		s.freeEntry(m, e)
	}
}

func (m *vmMap) protect(start, end param.VAddr, prot param.Prot) error {
	m.lock()
	defer m.unlock()
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
