package uvm

import (
	"cmp"
	"fmt"
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/swap"
)

// anon describes a single page of anonymous memory (§5.2): a reference
// count and the current location of the data — a resident page, a swap
// slot, or both (a clean resident page whose copy is still valid on swap).
//
// An anon with a single reference is writable in place; an anon referenced
// by more than one amap is copy-on-write.
//
// mu guards every field. It sits below the amap lock and above the page
// identity lock in the package lock order; the fault path holds it from
// resolution through pmap entry so the pagedaemon (which TryLocks it)
// can never yank the page out from under a fault in progress.
type anon struct {
	//uvm:lock anon
	mu     sync.Mutex
	refs   int
	page   *phys.Page
	swslot int64
	// loaned marks an anon whose page is *borrowed* via page loanout /
	// page transfer (§7) rather than owned: the page's true owner is
	// another anon or object (or nobody, if the owner has since died).
	loaned bool
	// layout says where pageout should put the anon's data relative to the
	// rest of a cluster: next to its VA neighbours. It names the amap slot
	// the anon was made for, is set when the anon is and never changes, so
	// it is read without the lock. Only a hint — an anon that has since come
	// to be shared by other amaps keeps the key of its birthplace — and
	// never consulted for correctness.
	layout layoutKey
}

// layoutKey orders the pages of one pageout cluster (flight.swapRun): by
// the amap or aobj they belong to, then by slot or page index, which is VA
// order wherever one mapping is concerned. Eight bytes, so that carrying
// one leaves the anon in the allocation size class it had without.
type layoutKey struct {
	id  uint32 // amap.id or uobject.id; they share one sequence
	idx uint32 // amap slot, or page index in the aobj
}

func newLayoutKey(id uint32, idx int) layoutKey { return layoutKey{id: id, idx: uint32(idx)} }

func (k layoutKey) compare(l layoutKey) int {
	if c := cmp.Compare(k.id, l.id); c != 0 {
		return c
	}
	return cmp.Compare(k.idx, l.idx)
}

// String renders the anon's refcount and data location for debug output.
func (a *anon) String() string {
	loc := "none"
	if a.page != nil {
		loc = "resident"
	} else if a.swslot != swap.NoSlot {
		loc = fmt.Sprintf("swap:%d", a.swslot)
	}
	return fmt.Sprintf("anon(refs=%d %s)", a.refs, loc)
}

// newAnon allocates the anon that is to fill slot of am.
func (s *System) newAnon(am *amap, slot int) *anon {
	s.mach.Clock.Advance(s.mach.Costs.AnonAlloc)
	s.ctrAnonAlloc.Inc()
	s.ctrAnonLive.Inc()
	return &anon{refs: 1, swslot: swap.NoSlot, layout: newLayoutKey(am.id, slot)}
}

// anonRef adds a reference (a new amap slot pointing at the anon).
func (s *System) anonRef(a *anon) {
	a.mu.Lock()
	a.refs++
	a.mu.Unlock()
}

// anonUnref drops one reference; the last drop frees the page and swap
// slot. This reference counting is what makes the collapse operation —
// and the swap leak it fights — unnecessary in UVM (§5.3).
func (s *System) anonUnref(a *anon) {
	a.mu.Lock()
	if a.refs <= 0 {
		panic("uvm: anon refcount underflow")
	}
	a.refs--
	if a.refs > 0 {
		a.mu.Unlock()
		return
	}
	pg := a.page
	a.page = nil
	loanedView := a.loaned
	slot := a.swslot
	a.swslot = swap.NoSlot
	a.mu.Unlock()

	if pg != nil {
		s.dropAnonPage(pg, loanedView)
	}
	if slot != swap.NoSlot {
		s.mach.Swap.Free(slot)
	}
	s.mach.Clock.Advance(s.mach.Costs.AnonFree)
	s.ctrAnonLive.Add(-1)
}

// dropAnonPage releases a dying anon's hold on pg. The keep-or-free
// decision races with concurrent loan returns, so it is made atomically
// under the page identity lock. On every path the page's translations
// are removed once, and a frame that is freed leaves its paging queue in
// Mem.Free.
func (s *System) dropAnonPage(pg *phys.Page, loanedView bool) {
	freeIt, unmapped := false, false
	pg.WithIdentity(func(owner any) {
		switch {
		case loanedView:
			// This anon merely borrowed the page: drop the loan; free the
			// frame only if the true owner is already gone and we were
			// the last borrower.
			freeIt = pg.LoanCount.Add(-1) == 0 && owner == nil
		case pg.LoanCount.Load() > 0:
			// Dying owner of a loaned-out page: orphan the frame. The
			// borrowers keep the data; the last of them frees it. If the
			// last loan was returned while we were deciding, the frame is
			// already unreachable and we free it ourselves.
			pg.Orphan()
			s.mach.MMU.PageProtect(pg, param.ProtNone)
			s.mach.Mem.Dequeue(pg)
			unmapped = true
			freeIt = pg.LoanCount.Load() == 0
		default:
			pg.WireCount.Store(0)
			freeIt = true
		}
	})
	if freeIt {
		if !unmapped {
			s.mach.MMU.PageProtect(pg, param.ProtNone)
		}
		s.mach.Mem.Free(pg)
	}
}

// amap is an anonymous memory map: a set of anons covering a range of
// virtual pages (§5.2). refs counts the map entries referencing it. mu
// guards refs and the slots; it nests below map and object locks and above
// anon locks.
//
// The storage is the array UVM ships with (§5.3: "an array-based
// implementation whose space cost varies with the number of virtual pages
// covered"), held inline, one slot per page. §5.3 also suggests a
// hash/array hybrid for large sparse amaps; it was built behind an
// interface and measured against the array on the benchmark's workloads,
// showed no win that held across seeds, and was not kept.
type amap struct {
	//uvm:lock amap
	mu    sync.Mutex
	anons []*anon
	refs  int
	id    uint32 // layoutKey.id of the anons made for this amap; immutable
	home  uint8  // phys queue shard its anons' frames come from: its map's home; immutable
}

// get returns the anon in slot, or nil for an empty or out-of-range slot.
func (am *amap) get(slot int) *anon {
	if slot < 0 || slot >= len(am.anons) {
		return nil
	}
	return am.anons[slot]
}

// set stores a (nil empties the slot); slot must be in range.
func (am *amap) set(slot int, a *anon) {
	if slot < 0 || slot >= len(am.anons) {
		panic(fmt.Sprintf("uvm: amap slot %d out of range [0,%d)", slot, len(am.anons)))
	}
	am.anons[slot] = a
}

// foreach visits every non-nil slot in slot order; fn returns false to
// stop.
func (am *amap) foreach(fn func(slot int, a *anon) bool) {
	for i, a := range am.anons {
		if a != nil && !fn(i, a) {
			return
		}
	}
}

// newAmap creates an amap for a map whose home is home.
func (s *System) newAmap(home uint8, nslots int) *amap {
	s.mach.Clock.Advance(s.mach.Costs.AmapAlloc)
	// The array pays per-slot initialisation up front.
	s.mach.Clock.ChargeN(nslots, s.mach.Costs.AmapPerSlot)
	s.ctrAmapAlloc.Inc()
	s.ctrAmapLive.Inc()
	return &amap{anons: make([]*anon, nslots), refs: 1, id: s.layoutIDs.Add(1), home: home}
}

// amapRef adds a map-entry reference.
func (s *System) amapRef(am *amap) {
	am.mu.Lock()
	am.refs++
	am.mu.Unlock()
}

// amapUnref drops one map-entry reference; the last drop releases every
// anon.
//
// Granularity note: references are per-amap, not per-slot-range (real
// UVM's amap_unref takes a range). When a clip splits an entry, both
// halves share the amap; unmapping one half keeps the whole amap — and
// its anons — alive until the sibling goes too. The waste is transient
// and bounded by the original mapping's size, and full teardown (exit,
// complete munmap) always frees everything, which the leak tests verify.
func (s *System) amapUnref(am *amap) {
	am.mu.Lock()
	if am.refs <= 0 {
		panic("uvm: amap refcount underflow")
	}
	am.refs--
	if am.refs > 0 {
		am.mu.Unlock()
		return
	}
	am.foreach(func(slot int, a *anon) bool {
		s.anonUnref(a)
		am.set(slot, nil)
		return true
	})
	am.mu.Unlock()
	s.ctrAmapLive.Add(-1)
}

// amapCopy clears an entry's needs-copy flag (§5.2, Figure 3):
//
//   - no amap yet: allocate an empty one sized to the entry;
//   - sole reference to the amap: nothing to copy — just clear the flag
//     (the "child" case in Figure 3);
//   - shared amap: allocate a new amap and copy the anon *pointers* for
//     the entry's slice, bumping each anon's reference count. No page data
//     moves; that is deferred to the per-anon copy-on-write fault.
//
// Caller holds the lock of m, the entry's map, exclusively — amapCopy
// mutates the entry itself. A new amap takes m's home.
func (s *System) amapCopy(m *vmMap, e *entry) {
	defer func() { e.needsCopy = false }()
	if e.amap == nil {
		e.amap = s.newAmap(m.home, e.pages())
		e.amapOff = 0
		return
	}
	am := e.amap
	am.mu.Lock()
	if am.refs == 1 {
		am.mu.Unlock()
		return
	}
	n := e.pages()
	na := s.newAmap(m.home, n) // private until published below
	for i := 0; i < n; i++ {
		if a := am.get(e.amapOff + i); a != nil {
			s.anonRef(a)
			na.set(i, a)
		}
	}
	am.mu.Unlock()
	s.amapUnref(am)
	e.amap = na
	e.amapOff = 0
}
