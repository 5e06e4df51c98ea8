package bsdvm

import (
	"fmt"
	"math"

	"uvm/internal/pageidx"
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vfs"
)

// object is a vm_object: a stand-alone memory object under VM-system
// control, holding resident pages and — for copy-on-write — a link to the
// object it shadows. The embedded Ident is how its frames name it as
// their owner.
type object struct {
	phys.Ident
	id   int
	refs int

	sizePg int
	pages  pageidx.Index[*phys.Page] // page index within object -> resident page

	// Shadow chain: this object's page i corresponds to shadow's page
	// i + shadowOff.
	shadow    *object
	shadowOff int

	pager *vmPager
	vnode *vfs.Vnode
	anon  bool // anonymous (zero-fill or shadow) object

	// canPersist marks objects worth keeping in the VM object cache when
	// unreferenced (vnode-backed objects).
	canPersist bool
	cached     bool
	cacheSeq   int64
}

// String names the object, its backing kind and its census for debug
// output.
func (o *object) String() string {
	kind := "anon"
	if o.vnode != nil {
		kind = "vnode:" + o.vnode.Name()
	}
	return fmt.Sprintf("obj%d(%s refs=%d pages=%d shadow=%v)",
		o.id, kind, o.refs, o.pages.Len(), o.shadow != nil)
}

// newObject allocates a vm_object. Every allocation is charged; this is
// one of the structures UVM eliminates for file mappings.
func (s *System) newObject(sizePg int, anon bool) *object {
	s.mach.Clock.Advance(s.mach.Costs.ObjectAlloc)
	s.mach.Stats.BsdObjectAlloc.Inc()
	s.mach.Stats.BsdObjectLive.Inc()
	s.nextObjID++
	o := &object{
		id:     s.nextObjID,
		refs:   1,
		sizePg: sizePg,
		anon:   anon,
	}
	o.Name(o)
	return o
}

// vnodeObject finds or creates the memory object for a file. BSD VM
// allocates the object, a vm_pager, a vn_pager private structure, and a
// pager hash table entry — all separate from the vnode (§6, Figure 4).
func (s *System) vnodeObject(vn *vfs.Vnode) *object {
	// The lookup goes through the pager hash table.
	s.mach.Clock.Advance(s.mach.Costs.HashLookup)
	if o, ok := vn.VMObj.(*object); ok && o != nil {
		if o.cached {
			s.cache.remove(s, o)
			o.refs = 1
		} else {
			o.refs++
		}
		return o
	}
	o := s.newObject(vn.NumPages(), false)
	o.vnode = vn
	o.canPersist = true
	vn.Ref() // the object holds a reference on its vnode
	vn.VMObj = o
	o.pager = s.newVnodePager(vn)
	s.hashInsert(o.pager, o)
	return o
}

// shadowEntry gives e its own shadow object in front of its current
// backing object (vm_object_shadow), clearing needs-copy. BSD VM performs
// this on the first fault of any kind — even a read fault, where it is
// unnecessary (the Table 3 read/private anomaly).
func (s *System) shadowEntry(e *entry) {
	sh := s.newObject(e.Pages(), true)
	sh.shadow = e.obj // entry's reference moves to the shadow
	sh.shadowOff = param.OffToPage(e.off)
	e.obj = sh
	e.off = 0
	e.needsCopy = false
	s.mach.Stats.BsdShadowAlloc.Inc()
}

// deallocate drops one reference; at zero the object is cached (persisting
// vnode objects) or terminated. Dropping a shadow reference is one of the
// collapse trigger points (§5.3).
func (s *System) deallocate(o *object) {
	if o.refs <= 0 {
		panic("bsdvm: object refcount underflow: " + o.String())
	}
	o.refs--
	if o.refs > 0 {
		// A dropped reference may make a chain collapsible.
		if o.shadow != nil {
			s.collapse(o)
		}
		return
	}
	if o.canPersist && !s.cfg.DisableObjCache {
		// Dirty pages of the (shared) file mapping are pushed through the
		// buffer cache before the object goes inactive.
		s.flushDirty(o)
		s.cache.enter(s, o)
		return
	}
	s.terminate(o)
}

// terminate frees the object: all resident pages, swap space, pager
// structures, the vnode reference, and the shadow reference.
func (s *System) terminate(o *object) {
	// Flush modified file pages back before the pages die.
	s.flushDirty(o)
	for idx, pg := range o.pages.Range(0, math.MaxInt) {
		s.freeObjectPage(o, idx, pg)
	}
	if o.pager != nil {
		s.destroyPager(o.pager)
		o.pager = nil
	}
	if o.vnode != nil {
		o.vnode.VMObj = nil
		o.vnode.Unref()
		o.vnode = nil
	}
	s.mach.Clock.Advance(s.mach.Costs.ObjectFree)
	s.mach.Stats.BsdObjectLive.Add(-1)
	if o.shadow != nil {
		sh := o.shadow
		o.shadow = nil
		s.deallocate(sh)
	}
}

// flushDirty pushes an object's modified file pages to the buffer cache
// (asynchronous write-back: the caller pays the copy, not the disk).
func (s *System) flushDirty(o *object) {
	if o.vnode == nil || o.anon {
		return
	}
	for idx, pg := range o.pages.Range(0, math.MaxInt) {
		if pg.Dirty.Load() {
			_ = o.vnode.WritePageAsync(idx, pg.Freeze())
			pg.Dirty.Store(false)
		}
	}
}

// freeObjectPage removes one resident page from o and frees the frame.
func (s *System) freeObjectPage(o *object, idx int, pg *phys.Page) {
	s.mach.MMU.PageProtect(pg, param.ProtNone)
	o.pages.Delete(idx)
	s.mach.Mem.Dequeue(pg)
	pg.WireCount.Store(0) // teardown of wired placeholder pages
	s.mach.Mem.Free(pg)
}

// hasPage reports whether page idx is resident in o.
func (o *object) hasPage(idx int) bool {
	_, ok := o.pages.Get(idx)
	return ok
}

// hasSwap reports whether the object has assigned swap for page idx.
func (o *object) hasSwap(idx int) bool {
	return o.pager != nil && o.pager.swp != nil && o.pager.swp.hasSlot(idx)
}

// contributes reports whether o holds any page or swap data in the window
// [off, off+n) — used by the collapse bypass test.
func (o *object) contributes(off, n int) bool {
	for range o.pages.Range(off, off+n-1) {
		return true
	}
	if o.pager != nil && o.pager.swp != nil {
		for range o.pager.swp.slots.Range(off, off+n-1) {
			return true
		}
	}
	return false
}

// collapse attempts to shorten o's shadow chain (vm_object_collapse). Two
// moves exist: merging a singly-referenced shadow into o, and bypassing a
// shadow that contributes nothing to o's window. The scan itself costs
// time — work BSD VM performs on every copy fault, reference drop and
// first pageout, and which UVM never needs (§5.3).
func (s *System) collapse(o *object) {
	if s.cfg.DisableCollapse {
		return
	}
	for {
		s.mach.Clock.Advance(s.mach.Costs.CollapseScan)
		s.mach.Stats.BsdCollapseScan.Inc()

		sh := o.shadow
		if sh == nil || !sh.anon || sh.pager != nil && sh.pager.vn != nil {
			return
		}
		if sh.refs == 1 {
			// Merge: pull sh's pages and swap up into o where o has no
			// data of its own; anything o already covers is redundant and
			// dies here.
			for idx, pg := range sh.pages.Range(0, math.MaxInt) {
				top := idx - o.shadowOff
				if top >= 0 && top < o.sizePg && !o.hasPage(top) && !o.hasSwap(top) {
					sh.pages.Delete(idx)
					pg.SetOwner(o, param.PageToOff(top))
					o.pages.Set(top, pg)
				} else {
					s.freeObjectPage(sh, idx, pg)
					s.mach.Stats.BsdCollapseRedundant.Inc()
				}
			}
			if sh.pager != nil && sh.pager.swp != nil {
				for idx, slot := range sh.pager.swp.slots.Range(0, math.MaxInt) {
					top := idx - o.shadowOff
					if top >= 0 && top < o.sizePg && !o.hasPage(top) && !o.hasSwap(top) {
						s.ensureSwapPager(o)
						o.pager.swp.adopt(top, slot, sh.pager.swp)
						sh.pager.swp.slots.Delete(idx)
					}
					// Slots left behind are freed by destroyPager below.
				}
			}
			if sh.pager != nil {
				s.destroyPager(sh.pager)
				sh.pager = nil
			}
			o.shadow = sh.shadow // inherit sh's reference on its shadow
			o.shadowOff += sh.shadowOff
			sh.shadow = nil
			s.mach.Clock.Advance(s.mach.Costs.ObjectFree)
			s.mach.Stats.BsdObjectLive.Add(-1)
			s.mach.Stats.BsdCollapseMerged.Inc()
			continue
		}
		// Bypass: if sh holds nothing o's window needs, o can point
		// directly at sh's shadow.
		if sh.shadow != nil && !sh.contributes(o.shadowOff, o.sizePg) {
			sh.shadow.refs++
			newOff := o.shadowOff + sh.shadowOff
			o.shadow = sh.shadow
			o.shadowOff = newOff
			s.mach.Stats.BsdCollapseBypassed.Inc()
			s.deallocate(sh)
			continue
		}
		return
	}
}

// chainStats walks e's object chain and reports its shape: the number of
// objects, total resident pages, and how many of those pages are
// reachable through the entry (a page is shadowed — unreachable — if some
// object above it in the chain also has that index). The difference is
// the redundant memory the paper's swap-leak discussion concerns.
func chainStats(e *entry) (objects, totalPages, reachablePages int) {
	seen := make(map[int]bool) // indexes (in top-object coordinates) already satisfied
	off := 0
	for o := e.obj; o != nil; o = o.shadow {
		objects++
		for idx := range o.pages.Range(0, math.MaxInt) {
			top := idx - off
			totalPages++
			if top >= 0 && !seen[top] {
				seen[top] = true
				reachablePages++
			}
		}
		off += o.shadowOff
	}
	return
}
