package uvm

import (
	"fmt"
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vfs"
)

// pagerOps is UVM's pager interface: a table of functions through which
// all access to a memory object's data is routed (§4, §6). The crucial API
// property is that get *allocates the page itself* — the fault routine
// never allocates pages for a pager, giving the pager full control over
// which page receives the data (§6).
//
// Both operations are called with the object's mutex held. There is no
// per-pager put: every page write, for every pager, is a flight
// (flight.go), which takes the array of pages and the sync/async flag.
type pagerOps interface {
	// name identifies the pager in stats and debug output.
	name() string
	// get makes page idx of o resident and returns it, allocating the
	// page itself. [lo, hi] is the index range around idx the caller is
	// prepared to use (a fault's advice window, the rest of a file
	// read): the pager decides how many of its non-resident pages the
	// same I/O brings in — they are installed and activated, not
	// returned — and only a failure to produce idx itself is an error.
	// Allocating frames drops o.mu.
	get(o *uobject, idx, lo, hi int) (*phys.Page, error)
	// detach is called when the object's last mapping reference drops.
	detach(o *uobject)
}

// uobject is a uvm_object. For files it is *embedded* in the vnode (the
// vnode layer stores it in Vnode.VMObj and allocates it together with the
// vnode) — no separate pager structure, no pager hash table (§6,
// Figure 4). For anonymous shared objects (aobj) it stands alone.
//
// mu guards refs, the resident-page map and the aobj swap-slot map. It
// nests below the map lock and above the amap/anon locks (the write
// fault that promotes an object page into a fresh anon holds both).
type uobject struct {
	//uvm:lock object
	mu     sync.Mutex
	ops    pagerOps
	refs   int
	sizePg int
	pages  map[int]*phys.Page

	vnode *vfs.Vnode // vnode-backed objects
	// aobj swap slots (uao_swhash equivalent): page idx -> slot.
	aobjSlots map[int]int64
	id        uint32 // aobj: layoutKey.id of its pages
}

// String renders the object's pager kind and population for debug output.
func (o *uobject) String() string {
	return fmt.Sprintf("uobj(%s refs=%d pages=%d)", o.ops.name(), o.refs, len(o.pages))
}

// objRef adds a mapping reference to an object.
func (s *System) objRef(o *uobject) {
	o.mu.Lock()
	o.refs++
	o.mu.Unlock()
}

// vnodeObject returns the uvm_object embedded in vn, creating it on first
// mapping. Unlike BSD VM there is no hash lookup and no separate
// structure allocations: the object lives inside the vnode. The
// create-or-revive decision is serialised by vnObjMu so concurrent
// mappers of the same file agree on one object.
func (s *System) vnodeObject(vn *vfs.Vnode) *uobject {
	s.vnObjMu.Lock()
	defer s.vnObjMu.Unlock()
	if o, ok := vn.GetVMObj().(*uobject); ok && o != nil {
		o.mu.Lock()
		o.refs++
		revived := o.refs == 1
		o.mu.Unlock()
		if revived {
			// First mapping reference since the object went inactive: the
			// VM re-references the vnode.
			vn.Ref()
		}
		return o
	}
	o := &uobject{
		ops:    &vnodePager{sys: s},
		refs:   1,
		sizePg: vn.NumPages(),
		pages:  make(map[int]*phys.Page),
		vnode:  vn,
	}
	vn.Ref()
	// The recycle hook: when the vnode layer recycles this vnode, UVM
	// terminates the embedded object (§4 — the single-cache design).
	vn.SetVMObj(o, func(v *vfs.Vnode) { s.vnodeRecycled(o) })
	s.mach.Stats.Inc("uvm.uobj.vnode.created")
	return o
}

// objUnref drops a mapping reference on an object. When a vnode object's
// last mapping goes away UVM does NOT free the pages and does NOT cache
// the object itself — it simply releases its vnode reference. The pages
// stay attached to the (now possibly inactive) vnode, and live exactly as
// long as the vnode cache keeps the vnode: one cache, managed by the vnode
// layer (§4).
func (s *System) objUnref(o *uobject) {
	o.mu.Lock()
	if o.refs <= 0 {
		o.mu.Unlock()
		panic("uvm: uobject refcount underflow: " + o.String())
	}
	o.refs--
	if o.refs > 0 {
		o.mu.Unlock()
		return
	}
	o.ops.detach(o)
	vn := o.vnode
	o.mu.Unlock()
	// The vnode reference is dropped outside the object lock: Unref can
	// trigger the recycle hook, which takes the object lock itself.
	if vn != nil {
		vn.Unref()
	}
}

// vnodeRecycled is the OnRecycle hook: write the modified pages back,
// free the object's pages and forget it; the vnode is going away. The
// vnode layer invokes the hook without holding the filesystem lock, so
// it is free to sleep on writeback I/O. With cfg.AsyncWriteback the
// dirty pages leave as a clustered flight and the hook waits for it
// before freeing frames (a failed write loses the page with its vnode);
// otherwise each page is queued through the buffer cache.
func (s *System) vnodeRecycled(o *uobject) {
	o.mu.Lock()
	if !s.cfg.AsyncWriteback {
		s.bdwriteDirtyLocked(o)
	} else if fl := s.flushLocked(o, 0, maxPageIdx, true, true); fl != nil {
		o.mu.Unlock()
		fl.wait()
		o.mu.Lock()
	}
	// A frame still riding a detach-time flush belongs to the I/O: wait
	// it out before freeing.
	s.waitObjIdleLocked(o)
	for _, idx := range sortedPageIdxs(o, 0, maxPageIdx) {
		s.freeObjectPage(o, idx, o.pages[idx])
	}
	o.mu.Unlock()
	s.mach.Stats.Inc("uvm.uobj.vnode.recycled")
}

// freeObjectPage drops one resident page from o. Caller holds o.mu.
func (s *System) freeObjectPage(o *uobject, idx int, pg *phys.Page) {
	s.mach.MMU.PageProtect(pg, param.ProtNone)
	delete(o.pages, idx)
	if pg.WireCount.Load() > 0 {
		pg.WireCount.Store(0)
	}
	s.mach.Mem.Free(pg)
}

// allocObjPageLocked allocates a frame for page idx of o while o.mu is
// held by the caller. The object lock is dropped around the allocation —
// otherwise a reclaim triggered by memory pressure could not evict any
// page belonging to o (the pagedaemon TryLocks owners), and a single
// object owning most of RAM would deadlock the system. After relocking,
// a concurrent fault may have made the page resident; in that case the
// fresh frame is returned to the allocator and the resident page is
// handed back with raced=true.
func (s *System) allocObjPageLocked(o *uobject, idx int, zero bool) (pg *phys.Page, raced bool, err error) {
	o.mu.Unlock()
	pg, err = s.allocPage(noHome, o, param.PageToOff(idx), zero)
	o.mu.Lock()
	if err != nil {
		return nil, false, err
	}
	if existing, ok := o.pages[idx]; ok {
		s.mach.Mem.Free(pg)
		return existing, true, nil
	}
	return pg, false, nil
}

// --- vnode pager ---

type vnodePager struct{ sys *System }

func (vp *vnodePager) name() string { return "vnode" }

// get reads the non-resident stretch of [lo, hi] around idx — all of it
// the caller can use, so all of it worth one positioning cost — with one
// I/O, unless clustering is off.
func (vp *vnodePager) get(o *uobject, idx, lo, hi int) (*phys.Page, error) {
	if vp.sys.cfg.DisableClustering {
		lo, hi = idx, idx
	}
	return vp.sys.objPagein(o, idx, lo, hi, hi-lo+1)
}

func (vp *vnodePager) detach(o *uobject) {
	// Last mapping gone: push modified pages through the buffer cache
	// (asynchronously — the pages also stay resident). The pages stay
	// with the vnode; the vnode cache decides their fate. (The VM's
	// vnode reference is dropped by objUnref, outside the object lock.)
	//
	// With cfg.AsyncWriteback this is a fire-and-forget flight: nobody
	// waits on it; its completion clears dirty/busy, and recycle/Shutdown
	// wait out any stragglers. Pages already claimed by another flush are
	// skipped, not waited for — detach is called with o.mu held and must
	// not sleep.
	if vp.sys.cfg.AsyncWriteback {
		vp.sys.flushLocked(o, 0, maxPageIdx, true, false)
		return
	}
	vp.sys.bdwriteDirtyLocked(o)
}

// --- aobj pager (anonymous uvm objects: System V shm, shared anon) ---

type aobjPager struct{ sys *System }

func (ap *aobjPager) name() string { return "aobj" }

// newAObj creates an anonymous uvm_object of n pages.
func (s *System) newAObj(n int) *uobject {
	s.mach.Clock.Advance(s.mach.Costs.ObjectAlloc)
	s.mach.Stats.Inc("uvm.uobj.aobj.created")
	return &uobject{
		ops:       &aobjPager{sys: s},
		refs:      1,
		sizePg:    n,
		pages:     make(map[int]*phys.Page),
		aobjSlots: make(map[int]int64),
		id:        s.layoutIDs.Add(1),
	}
}

// get reads idx's swap slot and, with the same I/O, the adjoining slots
// of idx's index neighbours in [lo, hi] — pageout laid them out in index
// order — as far as swapRunMax lets one run reach.
func (ap *aobjPager) get(o *uobject, idx, lo, hi int) (*phys.Page, error) {
	window := ap.sys.swapRunMax(hi - lo + 1)
	if window == 1 {
		lo, hi = idx, idx
	}
	return ap.sys.objPagein(o, idx, lo, hi, window)
}

func (ap *aobjPager) detach(o *uobject) {
	// Anonymous objects die with their last reference: free pages and
	// swap.
	//uvm:maporder-ok frees interchangeable frames; no cost depends on free order
	for idx, pg := range o.pages {
		ap.sys.freeObjectPage(o, idx, pg)
	}
	//uvm:maporder-ok swap frees clear bitmap bits; next-fit allocation sees only the free set
	for _, slot := range o.aobjSlots {
		ap.sys.mach.Swap.Free(slot)
	}
	o.aobjSlots = make(map[int]int64)
	ap.sys.mach.Stats.Inc("uvm.uobj.aobj.destroyed")
}

// --- device pager ---

// devPager demonstrates the flexibility of the pager-allocates-pages API
// (§6's ROM example): the pager hands out pre-allocated, pager-owned
// frames rather than fresh ones; they are wired and never paged.
type devPager struct {
	sys    *System
	frames []*phys.Page
}

func (dp *devPager) name() string { return "device" }

// newDeviceObject creates an object backed by n device-owned frames
// (filled by fill, e.g. simulated ROM or frame-buffer contents).
func (s *System) newDeviceObject(n int, fill func(idx int, buf []byte)) (*uobject, error) {
	dp := &devPager{sys: s}
	o := &uobject{ops: dp, refs: 1, sizePg: n, pages: make(map[int]*phys.Page)}
	for i := 0; i < n; i++ {
		pg, err := s.allocPage(noHome, o, param.PageToOff(i), false)
		if err != nil {
			return nil, err
		}
		pg.WireCount.Store(1) // device memory never pages
		if fill != nil {
			fill(i, pg.Data)
		}
		dp.frames = append(dp.frames, pg)
	}
	s.mach.Stats.Inc("uvm.uobj.dev.created")
	return o, nil
}

func (dp *devPager) get(o *uobject, idx, _, _ int) (*phys.Page, error) {
	if idx < 0 || idx >= len(dp.frames) {
		return nil, fmt.Errorf("uvm: device page %d out of range", idx)
	}
	pg := dp.frames[idx]
	o.pages[idx] = pg
	return pg, nil
}

func (dp *devPager) detach(o *uobject) {
	for _, pg := range dp.frames {
		pg.WireCount.Store(0)
		dp.sys.mach.MMU.PageProtect(pg, param.ProtNone)
		dp.sys.mach.Mem.Free(pg)
	}
	o.pages = make(map[int]*phys.Page)
	dp.frames = nil
}
