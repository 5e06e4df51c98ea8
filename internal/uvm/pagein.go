package uvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/swap"
)

// Pageins: every read of a page from backing store — the paper's pager
// get, in which the pager allocates the pages itself (§6) — is one
// mechanism, the read-side twin of the flight (flight.go). A pagein is a
// run of freshly allocated frames bound for consecutive backing-store
// blocks (swap slots, or pages of a vnode). readRun marks the run Busy
// and fills it with exactly one I/O; finishRun is the one install site:
// Busy off, Dirty off, each frame attached to its owner (a.page or
// o.pages[idx]), every frame but the one the fault is about to map
// activated, every counter bumped. When the I/O — or the allocation
// before it — fails, finishRun frees every frame of the run and attaches
// nothing.
//
// A single-page pagein is a run of length one: the same swap.ios tick
// and the same one-block disk command. Clustered pagein
// (cfg.PageinCluster > 1) is a longer run, the read-side mirror of the
// paper's clustered pageout: the pagedaemon reassigns a dirty cluster —
// typically VA-adjacent anons of one amap, or index-adjacent pages of
// one aobj — into one contiguous run of swap slots, so when one of them
// faults back in its neighbours very likely sit in the adjacent slots
// and one positioning cost can drag the whole neighbourhood back. There
// is no slot→owner reverse map, and we do not want one; the amap and the
// aobj's slot table already are the locality maps. The cluster type is
// the one run builder, fed by two enumerators that own nothing but
// their locking protocol:
//
//   - anonNeighbours walks the faulting anon's VA neighbours in its
//     amap. Anon locks are peers in the lock order (blocking could
//     deadlock with a fault walking the other way), so neighbours are
//     TryLocked only — a busy one simply drops out of the window — and
//     the locks stay held across the frame allocation and the I/O.
//   - aobjNeighbours walks the faulting index's neighbours in the
//     object's slot table. Every frame allocation drops o.mu
//     (allocObjPageLocked), so each survivor, and the faulting index
//     itself, is re-verified under the retaken lock; aobjPager.get loops
//     until the slot state holds still, and from the final check to the
//     read the lock is held continuously.
//
// Clustering is an optimisation, never a new way to fail a fault: a
// cluster that cannot get its frames or whose read fails degrades to the
// centre page alone — the same mechanism again with a run of one — and
// only that read's error fails the fault. Pages brought in for
// neighbours are activated but not mapped; the fault-time lookahead maps
// resident neighbours for free. asyncPagein (§10 read-ahead) is the
// vnode enumerator: one single-page run per non-resident page of the
// advice window, read with the deferred primitive so the I/O overlaps
// the faulting process.

// pageinPage is one frame of a pagein and the place it attaches.
type pageinPage struct {
	pg  *phys.Page
	a   *anon // run of anons: attaches as a.page
	idx int   // run of object pages: attaches as o.pages[idx]
}

// pagein is one run of frames to fill from backing store. The owners —
// o, or every anon of the run — are locked by the caller throughout.
type pagein struct {
	o        *uobject // owning object; nil for a run of anons
	start    int64    // first block: a swap slot, or a page index of o.vnode
	deferred bool     // §10 read-ahead: the read overlaps the caller
	centre   int      // index in pages of the page the fault will map, or -1
	pages    []pageinPage
}

// pagein fills r with one I/O and installs it.
func (s *System) pagein(r pagein) error {
	return s.finishRun(r, s.readRun(r))
}

// readRun marks r's frames Busy and issues the run's one I/O. It is the
// only function in this package that reads backing store.
func (s *System) readRun(r pagein) error {
	var one [1][]byte // a run of one stays off the heap
	bufs := one[:0]
	for _, p := range r.pages {
		p.pg.Busy.Store(true)
		bufs = append(bufs, p.pg.Data)
	}
	switch {
	case r.o == nil || r.o.vnode == nil:
		return s.mach.Swap.ReadCluster(r.start, bufs)
	case r.deferred:
		return r.o.vnode.ReadPageAsync(int(r.start), bufs[0])
	default:
		return r.o.vnode.ReadPage(int(r.start), bufs[0])
	}
}

// finishRun is the one install site. err is the outcome of the run's
// read, or of the frame allocation that never got that far.
func (s *System) finishRun(r pagein, err error) error {
	for i, p := range r.pages {
		p.pg.Busy.Store(false)
		if err != nil {
			s.mach.Mem.Free(p.pg)
			continue
		}
		// The backing copy stays valid until the page is dirtied again; a
		// swap slot is kept so a clean eviction is free.
		p.pg.Dirty.Store(false)
		if r.o != nil {
			r.o.pages[p.idx] = p.pg
		} else {
			p.a.page = p.pg
		}
		if i != r.centre {
			s.mach.Mem.Activate(p.pg)
		}
	}
	if err != nil {
		return err
	}
	n := int64(len(r.pages))
	s.ctrPageIns.Add(n)
	switch {
	case r.o == nil:
		s.mach.Stats.Add("uvm.anon.pagein", n)
		if n > 1 {
			s.mach.Stats.Inc(sim.CtrPageinClusters)
			s.mach.Stats.Add(sim.CtrPageinClustered, n-1)
		}
	case r.deferred:
		s.ctrAsyncPageinPgs.Add(n)
	case r.o.vnode == nil && n > 1:
		s.mach.Stats.Inc(sim.CtrAobjPageinClusters)
		s.mach.Stats.Add(sim.CtrAobjPageinClustered, n-1)
	}
	return nil
}

// cluster builds the run around a faulting swap slot: the enumerators
// offer it their willing neighbours' slots, bounds answers with the
// contiguous run to read.
type cluster struct {
	centre, window int64
	devLo, devHi   int64         // cluster I/O never crosses a swap device
	bySlot         map[int64]int // slot -> the enumerator's name for its owner
}

func (s *System) newCluster(centre int64, id, window int) cluster {
	lo, hi := s.mach.Swap.DeviceBounds(centre)
	return cluster{centre, int64(window), lo, hi, map[int64]int{centre: id}}
}

// offer enters slot as a candidate unless it lies off the centre's
// device, outside the window, or is already claimed.
func (c *cluster) offer(slot int64, id int) bool {
	if _, dup := c.bySlot[slot]; dup || slot < c.devLo || slot >= c.devHi ||
		slot <= c.centre-c.window || slot >= c.centre+c.window {
		return false
	}
	c.bySlot[slot] = id
	return true
}

// bounds grows the centre slot into the largest contiguous run the
// candidates cover, left before right, capped at the window.
func (c *cluster) bounds() (lo, hi int64) {
	lo, hi = c.centre, c.centre
	for grew := true; grew && hi-lo < c.window-1; {
		grew = false
		if _, ok := c.bySlot[lo-1]; ok {
			lo--
			grew = true
		}
		if _, ok := c.bySlot[hi+1]; ok && hi-lo < c.window-1 {
			hi++
			grew = true
		}
	}
	return lo, hi
}

// anonPagein brings a's data in from swap, reading adjacent slots held
// by a's VA neighbours with the same I/O when cfg.PageinCluster allows.
// Called with am.mu and a.mu held, a.page == nil and a.swslot valid; on
// success a.page is resident.
func (s *System) anonPagein(am *amap, a *anon, slot int) error {
	if window := s.pageinWindow(); window > 1 {
		if run := s.anonNeighbours(am, a, slot, window); len(run) > 1 {
			err := s.pageinAnons(run, a)
			for _, b := range run {
				if b != a {
					b.mu.Unlock()
				}
			}
			if err == nil {
				return nil
			}
		}
	}
	return s.pageinAnons([]*anon{a}, a)
}

// pageinAnons allocates a frame for each anon of run — locked, swapped
// out, in consecutive slots — and pages the run in.
func (s *System) pageinAnons(run []*anon, centre *anon) error {
	var one [1]pageinPage
	r := pagein{start: run[0].swslot, centre: int(centre.swslot - run[0].swslot), pages: one[:0]}
	for _, b := range run {
		pg, err := s.allocPage(b, 0, false)
		if err != nil {
			return s.finishRun(r, err)
		}
		r.pages = append(r.pages, pageinPage{pg: pg, a: b})
	}
	return s.pagein(r)
}

// anonNeighbours returns, in slot order, a and those VA neighbours of a
// in am whose swap slots extend a.swslot into a contiguous run: swapped
// out, unloaned, and their lock free right now. The neighbours returned
// are locked; every other candidate is released again.
func (s *System) anonNeighbours(am *amap, a *anon, slot, window int) []*anon {
	c := s.newCluster(a.swslot, 0, window)
	cands := []*anon{a}
	for d := 1 - window; d < window; d++ {
		b := am.impl.get(slot + d)
		if b == nil || b == a || !b.mu.TryLock() {
			continue
		}
		if b.page != nil || b.loaned || b.swslot == swap.NoSlot || !c.offer(b.swslot, len(cands)) {
			b.mu.Unlock()
			continue
		}
		cands = append(cands, b)
	}
	lo, hi := c.bounds()
	for _, b := range cands[1:] {
		if b.swslot < lo || b.swslot > hi {
			b.mu.Unlock()
		}
	}
	run := make([]*anon, 0, hi-lo+1)
	for sl := lo; sl <= hi; sl++ {
		run = append(run, cands[c.bySlot[sl]])
	}
	return run
}

// aobjNeighbours builds the run around page idx of o, whose data sits in
// slot and whose frame is pg: index neighbours that are swapped out to
// slots extending slot into a contiguous run. Called with o.mu held;
// allocating the neighbours' frames drops it, so the run returned (nil
// when idx stands alone) holds only what was re-verified afterwards, and
// begins at slot start. still is false when idx itself became resident
// or changed slot meanwhile: every frame, pg included, has been freed
// and the caller starts over.
func (s *System) aobjNeighbours(o *uobject, idx int, slot int64, pg *phys.Page, window int) (run []pageinPage, start int64, still bool) {
	swappedOutAt := func(n int, sl int64) bool {
		cur, ok := o.aobjSlots[n]
		return ok && cur == sl && o.pages[n] == nil
	}
	c := s.newCluster(slot, idx, window)
	for d := 1 - window; d < window; d++ {
		if nSlot, ok := o.aobjSlots[idx+d]; ok && o.pages[idx+d] == nil {
			c.offer(nSlot, idx+d)
		}
	}
	lo, hi := c.bounds()
	if lo == hi {
		return nil, slot, true
	}
	frames := make([]*phys.Page, hi-lo+1) // by slot-lo
	frames[slot-lo] = pg
	for sl := lo; sl <= hi; sl++ {
		if sl == slot {
			continue
		}
		// A neighbour that became resident, or for which memory ran short,
		// leaves the window.
		if f, raced, err := s.allocObjPageLocked(o, c.bySlot[sl], false); err == nil && !raced {
			frames[sl-lo] = f
		}
	}
	still = swappedOutAt(idx, slot)
	for sl := lo; sl <= hi; sl++ {
		if sl != slot && (frames[sl-lo] == nil || !swappedOutAt(c.bySlot[sl], sl)) {
			delete(c.bySlot, sl)
		}
	}
	runLo, runHi := c.bounds()
	for sl := lo; sl <= hi; sl++ {
		switch f := frames[sl-lo]; {
		case f == nil:
		case !still || sl < runLo || sl > runHi:
			s.mach.Mem.Free(f)
		default:
			run = append(run, pageinPage{pg: f, idx: c.bySlot[sl]})
		}
	}
	return run, runLo, still
}

// asyncPagein implements the paper's §10 future-work item: "modify UVM to
// asynchronously page in non-resident pages that appear to be useful".
// After a fault, the pages in the advice window that are backed by the
// object but not resident are brought in with read-ahead I/O that
// overlaps the faulting process' execution; the next fault then finds
// them resident and the lookahead machinery maps them for free.
func (s *System) asyncPagein(e *entry, faultVA param.VAddr) {
	o := e.obj
	if o == nil || o.vnode == nil {
		return
	}
	ahead, _ := e.advice.Lookahead()
	o.mu.Lock()
	defer o.mu.Unlock()
	base := param.Trunc(faultVA)
	for d := 1; d <= ahead; d++ {
		va := base + param.VAddr(d)*param.PageSize
		if va >= e.end {
			break
		}
		idx := e.objIndex(va)
		if _, resident := o.pages[idx]; resident {
			continue
		}
		if idx >= o.vnode.NumPages() {
			break
		}
		pg, raced, err := s.allocObjPageLocked(o, idx, false)
		if err != nil {
			return
		}
		if raced {
			continue // a concurrent fault brought the page in
		}
		r := pagein{o: o, start: int64(idx), deferred: true, centre: -1, pages: []pageinPage{{pg: pg, idx: idx}}}
		if s.pagein(r) != nil {
			return
		}
	}
}

// objPage returns page idx of o, resident: the pager's get brings it in
// if need be — the pager allocates the page itself (§6). A Busy page
// belongs to a flight; unless busyOK the call sleeps until the
// completion gives it back. Called with o.mu held; both get (around its
// allocation) and the sleep drop it, so the page is looked up afresh
// after each — get's raced path can hand back a page that a concurrent
// flush claimed in that window.
func (s *System) objPage(o *uobject, idx int, busyOK bool) (*phys.Page, error) {
	for {
		pg, ok := o.pages[idx]
		if !ok {
			var err error
			if pg, err = o.ops.get(o, idx); err != nil {
				return nil, err
			}
		}
		if busyOK || !pg.Busy.Load() {
			return pg, nil
		}
		s.waitObjPageIdle(o, pg)
	}
}
