package uvm

import (
	"fmt"
	"sync"
	"time"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/vmapi"
)

func errf(format string, args ...any) error { return fmt.Errorf("uvm: "+format, args...) }

// entry is a uvm map entry: a mapping of an (amap, object) pair into a
// range of virtual addresses. Either layer pointer may be nil — a shared
// file mapping usually has a nil amap, a zero-fill mapping a nil object
// (§5.2).
type entry struct {
	prev, next *entry

	start, end param.VAddr

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

func (e *entry) pages() int { return int((e.end - e.start) >> param.PageShift) }

// slotOf returns the amap slot for va within this entry.
func (e *entry) slotOf(va param.VAddr) int {
	return e.amapOff + int((param.Trunc(va)-e.start)>>param.PageShift)
}

// objIndex returns the backing-object page index for va.
func (e *entry) objIndex(va param.VAddr) int {
	return param.OffToPage(e.off) + int((param.Trunc(va)-e.start)>>param.PageShift)
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
	return max(i-behind, first), min(i+ahead, first+e.pages()-1)
}

// vmMap is a uvm_map. The RWMutex is the top of the package lock order:
// mutating operations take it exclusively, the fault path takes it
// shared (upgrading only to clear needs-copy or allocate the amap), so
// faults on different pages of one process proceed concurrently with
// each other and with every other process.
type vmMap struct {
	sys    *System
	name   string
	kernel bool

	//uvm:lock map
	mu sync.RWMutex

	min, max param.VAddr
	allocMax param.VAddr
	head     *entry
	tail     *entry
	n        int

	pmap *pmap.Pmap
	home uint8 // phys queue shard the anonymous frames of this address space come from

	lockedAt time.Duration // write-lock hold tracking (stats)
}

// newMap creates a map whose home is the next phys queue shard in turn, so
// address spaces created one after another allocate from different
// shards. Fork gives the child its parent's home instead.
func (s *System) newMap(name string, min, max param.VAddr, kernel bool) *vmMap {
	return &vmMap{
		sys:      s,
		name:     name,
		kernel:   kernel,
		min:      min,
		max:      max,
		allocMax: max,
		pmap:     s.mach.MMU.NewPmap(name),
		home:     uint8((s.maps.Add(1) - 1) % phys.NumShards),
	}
}

// lock takes the map exclusively, charging the acquisition cost.
func (m *vmMap) lock() {
	m.sys.mach.Clock.Advance(m.sys.mach.Costs.LockAcquire)
	m.mu.Lock()
	m.lockedAt = m.sys.mach.Clock.Now()
}

// lockNoCharge is the read->write upgrade path of the fault handler: the
// acquisition cost was already charged when the read lock was taken.
func (m *vmMap) lockNoCharge() {
	m.mu.Lock()
	m.lockedAt = m.sys.mach.Clock.Now()
}

func (m *vmMap) unlock() {
	held := m.sys.mach.Clock.Since(m.lockedAt)
	m.sys.ctrMapLockHeld.Add(int64(held))
	m.sys.ctrMapLockHeldMax.Max(int64(held))
	m.mu.Unlock()
}

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
	s.ctrEntryAlloc.Inc()
	s.ctrEntryLive.Inc()
	return &entry{inherit: param.InheritCopy, advice: param.AdviceNormal}
}

func (s *System) freeEntry(m *vmMap, e *entry) {
	if m.kernel {
		s.kentryUse.Add(-1)
	}
	s.mach.Clock.Advance(s.mach.Costs.MapEntryFree)
	s.ctrEntryLive.Add(-1)
}

func (m *vmMap) insert(e *entry) {
	var after *entry
	for cur := m.head; cur != nil; cur = cur.next {
		if cur.start >= e.end {
			break
		}
		if cur.end > e.start {
			panic("uvm: overlapping map entries: " + m.name)
		}
		after = cur
	}
	if after == nil {
		e.next = m.head
		e.prev = nil
		if m.head != nil {
			m.head.prev = e
		} else {
			m.tail = e
		}
		m.head = e
	} else {
		e.prev = after
		e.next = after.next
		after.next = e
		if e.next != nil {
			e.next.prev = e
		} else {
			m.tail = e
		}
	}
	m.n++
}

// insertOrMerge inserts e, first trying to coalesce it into a compatible
// adjacent entry — UVM merges simple entries (no amap yet, same object
// relationship and attributes) instead of accumulating them, which keeps
// kernel maps small (Table 1's boot rows).
func (m *vmMap) insertOrMerge(e *entry) *entry {
	if prev := m.predecessor(e.start); prev != nil && m.canMerge(prev, e) {
		prev.end = e.end
		m.sys.freeEntry(m, e)
		m.sys.mach.Stats.Inc("uvm.map.merges")
		return prev
	}
	m.insert(e)
	return e
}

// predecessor returns the entry ending exactly at va, if any.
func (m *vmMap) predecessor(va param.VAddr) *entry {
	for cur := m.head; cur != nil; cur = cur.next {
		if cur.end == va {
			return cur
		}
		if cur.start > va {
			return nil
		}
	}
	return nil
}

// canMerge reports whether b can be folded into a (a immediately precedes
// b). Only simple anonymous entries with identical attributes merge.
func (m *vmMap) canMerge(a, b *entry) bool {
	return a.end == b.start &&
		a.amap == nil && b.amap == nil &&
		a.obj == nil && b.obj == nil &&
		a.prot == b.prot && a.maxProt == b.maxProt &&
		a.inherit == b.inherit && a.advice == b.advice &&
		a.wired == b.wired &&
		a.cow == b.cow && a.needsCopy == b.needsCopy
}

func (m *vmMap) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	e.prev, e.next = nil, nil
	m.n--
}

func (m *vmMap) lookup(va param.VAddr) *entry {
	for cur := m.head; cur != nil; cur = cur.next {
		m.sys.mach.Clock.Advance(m.sys.mach.Costs.MapLookupEntry)
		if va >= cur.start && va < cur.end {
			return cur
		}
		if cur.start > va {
			return nil
		}
	}
	return nil
}

// lookupQuiet is lookup without the cost charge, for the fault handler's
// re-lookup after a read->write lock upgrade (the walk was already paid
// for under the read lock).
func (m *vmMap) lookupQuiet(va param.VAddr) *entry {
	for cur := m.head; cur != nil; cur = cur.next {
		if va >= cur.start && va < cur.end {
			return cur
		}
		if cur.start > va {
			return nil
		}
	}
	return nil
}

func (m *vmMap) findSpace(hint param.VAddr, length param.VSize) (param.VAddr, error) {
	if length == 0 {
		return 0, vmapi.ErrInvalid
	}
	start := m.min
	if hint > start {
		start = param.Trunc(hint)
	}
	for cur := m.head; cur != nil; cur = cur.next {
		m.sys.mach.Clock.Advance(m.sys.mach.Costs.MapLookupEntry)
		if cur.end <= start {
			continue
		}
		if cur.start >= start && param.VSize(cur.start-start) >= length {
			return start, nil
		}
		if cur.end > start {
			start = cur.end
		}
	}
	if start+param.VAddr(length) > m.allocMax || start+param.VAddr(length) < start {
		return 0, vmapi.ErrNoSpace
	}
	return start, nil
}

// clipStart splits e at va (va strictly inside e), allocating a new entry
// for the head part. Both halves share the amap (reference counted) and
// the object.
func (m *vmMap) clipStart(e *entry, va param.VAddr) {
	if va <= e.start || va >= e.end {
		return
	}
	headE := m.sys.allocEntry(m)
	*headE = *e
	headE.prev, headE.next = nil, nil
	headE.end = va

	delta := int((va - e.start) >> param.PageShift)
	e.start = va
	e.off += param.PageOff(delta) << param.PageShift
	e.amapOff += delta
	if e.obj != nil {
		m.sys.objRef(e.obj)
	}
	if e.amap != nil {
		m.sys.amapRef(e.amap)
	}

	headE.prev = e.prev
	headE.next = e
	if e.prev != nil {
		e.prev.next = headE
	} else {
		m.head = headE
	}
	e.prev = headE
	m.n++
}

func (m *vmMap) clipEnd(e *entry, va param.VAddr) {
	if va <= e.start || va >= e.end {
		return
	}
	tailE := m.sys.allocEntry(m)
	*tailE = *e
	tailE.prev, tailE.next = nil, nil
	delta := int((va - e.start) >> param.PageShift)
	tailE.start = va
	tailE.off = e.off + param.PageOff(delta)<<param.PageShift
	tailE.amapOff = e.amapOff + delta

	e.end = va
	if e.obj != nil {
		m.sys.objRef(e.obj)
	}
	if e.amap != nil {
		m.sys.amapRef(e.amap)
	}

	tailE.next = e.next
	tailE.prev = e
	if e.next != nil {
		e.next.prev = tailE
	} else {
		m.tail = tailE
	}
	e.next = tailE
	m.n++
}

func (m *vmMap) entriesIn(start, end param.VAddr) []*entry {
	var out []*entry
	for cur := m.head; cur != nil; cur = cur.next {
		m.sys.mach.Clock.Advance(m.sys.mach.Costs.MapLookupEntry)
		if cur.end <= start {
			continue
		}
		if cur.start >= end {
			break
		}
		if cur.start < start {
			m.clipStart(cur, start)
		}
		if cur.end > end {
			m.clipEnd(cur, end)
		}
		out = append(out, cur)
	}
	return out
}

// unmapPhase1 is the first half of UVM's two-phase unmap (§3.1): with the
// map locked, unlink the entries and tear down their translations. The
// removed entries are returned for phase 2.
func (m *vmMap) unmapPhase1(start, end param.VAddr) []*entry {
	removed := m.entriesIn(start, end)
	for _, e := range removed {
		m.unlink(e)
		// Batched teardown: the pmap mutex and each pv bucket are taken
		// once per entry's window instead of once per page.
		m.pmap.RemoveBatch(e.start, e.end)
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
	entries := m.entriesIn(start, end)
	if len(entries) == 0 {
		return vmapi.ErrFault
	}
	for _, e := range entries {
		if !e.maxProt.Allows(prot) {
			return vmapi.ErrInvalid
		}
		e.prot = prot
		m.pmap.Protect(e.start, e.end, prot)
	}
	return nil
}

func (m *vmMap) checkIntegrity() error {
	count := 0
	var prev *entry
	for cur := m.head; cur != nil; cur = cur.next {
		count++
		if cur.start >= cur.end {
			return errf("entry %x-%x empty or inverted", cur.start, cur.end)
		}
		if cur.start < m.min || cur.end > m.max {
			return errf("entry %x-%x outside map %x-%x", cur.start, cur.end, m.min, m.max)
		}
		if prev != nil && prev.end > cur.start {
			return errf("entries overlap: %x-%x then %x-%x", prev.start, prev.end, cur.start, cur.end)
		}
		if cur.prev != prev {
			return errf("broken prev link at %x", cur.start)
		}
		if cur.amap != nil && cur.amapOff+cur.pages() > len(cur.amap.anons) {
			return errf("entry %x-%x overruns its amap", cur.start, cur.end)
		}
		prev = cur
	}
	if m.tail != prev {
		return errf("tail mismatch")
	}
	if count != m.n {
		return errf("entry count %d != n %d", count, m.n)
	}
	return nil
}
