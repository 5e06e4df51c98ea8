package uvm

import (
	"uvm/internal/phys"
	"uvm/internal/sim"
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
// A single-page pagein is a run of length one: the same one-block disk
// command. There is one rule for every backing store: a pagein fills the
// fault's advice window with one I/O. How far a run may reach is the
// pager's decision (that is why get allocates the pages), inside what the
// caller is prepared to use — a fault, the entry's advice window clipped
// to the entry; file read/write, the rest of the request:
//
//   - The vnode pager reads the maximal stretch of non-resident pages
//     around the faulting index inside that range (and inside the file). A
//     file's blocks are consecutive, so the block of page idx is idx.
//   - Swap-backed memory has no fixed home, so the layout is made to fit:
//     when the pagedaemon reassigns a dirty cluster into one contiguous run
//     of swap slots it first orders the cluster by layout key — amap and
//     slot for an anon, object and index for an aobj page — so inside a
//     cluster slot order is VA order (flight.swapRun). A pagein then reads
//     the faulting page's slot and, with the same positioning cost, the
//     neighbours of the window that sit in the adjoining slots. There is
//     no slot→owner reverse map, and we do not want one; the amap and the
//     aobj's slot table already are the locality maps, and the key is a
//     hint: what is read is decided by the slots the neighbours hold now.
//
// cfg.DisableClustering and random advice (an empty window) make every
// run one page long; cfg.PageinCluster > 0 caps a swap-backed run.
//
// The two kinds of owner differ only in their locking protocol:
//
//   - anonRun walks outward from the faulting anon through its VA
//     neighbours in the amap, taking each while it is swapped out, unloaned
//     and holds exactly the next slot, and stopping on each side at the
//     first that does not — so a fault pays for the run it reads and at
//     most two probes more. Anon locks are peers in the lock order
//     (blocking could deadlock with a fault walking the other way), so
//     neighbours are TryLocked only — a busy one ends the walk on its side
//     — and the locks stay held across the frame allocation and the I/O.
//   - objNeighbours walks the faulting index's neighbours in the object:
//     its resident-page map and, for an aobj, its slot table, feeding the
//     cluster type, the run builder for blocks that may lie in any order.
//     Every frame allocation drops o.mu (allocObjPageLocked), so each
//     survivor, and the faulting index itself, is re-verified under the
//     retaken lock; objPagein loops until the page's state holds still,
//     and from the final check to the read the lock is held continuously.
//
// Clustering is an optimisation, never a new way to fail a fault: a
// cluster that cannot get its frames or whose read fails degrades to the
// centre page alone — the same mechanism again with a run of one — and
// only that read's error fails the fault. Pages brought in for
// neighbours are activated but not mapped; the fault-time lookahead maps
// the now-resident neighbours in the same fault.

// pageinStack is how many pages of a run a pagein keeps on its own stack:
// the deepest advice window (sequential — the page and eight ahead). Only
// a longer run, such as a file read's, spills to the heap.
const pageinStack = 9

// pageinPage is one frame of a pagein and the place it attaches.
type pageinPage struct {
	pg  *phys.Page
	a   *anon // run of anons: attaches as a.page
	idx int   // run of object pages: attaches as o.pages[idx]
}

// pagein is one run of frames to fill from backing store. The owners —
// o, or every anon of the run — are locked by the caller throughout.
type pagein struct {
	o      *uobject // owning object; nil for a run of anons
	start  int64    // first block: a swap slot, or a page index of o.vnode
	centre int      // index in pages of the page the fault will map
	pages  []pageinPage
}

// pagein fills r with one I/O and installs it.
func (s *System) pagein(r pagein) error {
	return s.finishRun(r, s.readRun(r))
}

// readRun marks r's frames Busy and issues the run's one I/O. It is the
// only function in this package that reads backing store.
func (s *System) readRun(r pagein) error {
	var stack [pageinStack][]byte
	bufs := stack[:0]
	if len(r.pages) > len(stack) {
		bufs = make([][]byte, 0, len(r.pages))
	}
	for _, p := range r.pages {
		p.pg.Busy.Store(true)
		bufs = append(bufs, p.pg.Data)
	}
	if r.o != nil && r.o.vnode != nil {
		return r.o.vnode.ReadPages(int(r.start), bufs)
	}
	return s.mach.Swap.ReadCluster(r.start, bufs)
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
		s.ctrAnonPageIns.Add(n)
		if n > 1 {
			s.ctrPageinClusters.Inc()
			s.ctrPageinClustered.Add(n - 1)
		}
	case r.o.vnode == nil && n > 1:
		s.mach.Stats.Inc(sim.CtrAobjPageinClusters)
		s.mach.Stats.Add(sim.CtrAobjPageinClustered, n-1)
	}
	return nil
}

// cluster builds the run around a faulting block of an object:
// objNeighbours offers it the willing neighbours' blocks, in whatever order
// they lie, and bounds answers with the contiguous run to read. A centre
// nobody joins costs no allocation.
type cluster struct {
	centre, window int64
	lo, hi         int64 // a run stays within [lo, hi]: the window, cut at the swap device's edge
	centreID       int   // the enumerator's name for the centre's owner
	ids            []int // by block-lo: 1 + the name of the block's owner, 0 for none
}

func newCluster(centre int64, id, window int) cluster {
	w := int64(window)
	return cluster{centre: centre, window: w, lo: centre - w + 1, hi: centre + w - 1, centreID: id}
}

// clip keeps the run inside [lo, hi): cluster I/O never crosses a swap
// device. Called before the first offer.
func (c *cluster) clip(lo, hi int64) {
	c.lo, c.hi = max(c.lo, lo), min(c.hi, hi-1)
}

// id returns the name entered for blk's owner.
func (c *cluster) id(blk int64) (int, bool) {
	if blk == c.centre {
		return c.centreID, true
	}
	if c.ids == nil || blk < c.lo || blk > c.hi {
		return 0, false
	}
	id := c.ids[blk-c.lo]
	return id - 1, id != 0
}

// offer enters blk as a candidate unless it lies off the centre's
// device, outside the window, or is already claimed.
func (c *cluster) offer(blk int64, id int) bool {
	if _, dup := c.id(blk); dup || blk < c.lo || blk > c.hi {
		return false
	}
	if c.ids == nil {
		c.ids = make([]int, c.hi-c.lo+1)
	}
	c.ids[blk-c.lo] = id + 1
	return true
}

// drop withdraws a candidate.
func (c *cluster) drop(blk int64) { c.ids[blk-c.lo] = 0 }

// bounds grows the centre block into the largest contiguous run the
// candidates cover, left before right, capped at the window.
func (c *cluster) bounds() (lo, hi int64) {
	lo, hi = c.centre, c.centre
	for grew := true; grew && hi-lo < c.window-1; {
		grew = false
		if _, ok := c.id(lo - 1); ok {
			lo--
			grew = true
		}
		if _, ok := c.id(hi + 1); ok && hi-lo < c.window-1 {
			hi++
			grew = true
		}
	}
	return lo, hi
}

// anonPagein brings a's data in from swap and, with the same I/O, the
// data of a's neighbours in e's advice window that sits in the adjoining
// slots. Called with am.mu and a.mu held, a.page == nil and a.swslot
// valid; slot is a's in am. On success a.page is resident.
func (s *System) anonPagein(e *entry, am *amap, a *anon, slot int) error {
	var (
		anons [pageinStack]*anon
		pages [pageinStack]pageinPage
	)
	lo, hi := e.adviceSlots(slot)
	if limit := s.swapRunMax(hi - lo + 1); limit > 1 {
		if run := s.anonRun(am, a, slot, lo, hi, limit, anons[:]); len(run) > 1 {
			err := s.pageinAnons(am, run, a, pages[:0])
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
	anons[0] = a
	return s.pageinAnons(am, anons[:1], a, pages[:0])
}

// pageinAnons allocates a frame near am's home for each anon of run —
// anons of am, locked, swapped out, in consecutive slots — and pages the
// run in. pages is scratch.
func (s *System) pageinAnons(am *amap, run []*anon, centre *anon, pages []pageinPage) error {
	r := pagein{start: run[0].swslot, centre: int(centre.swslot - run[0].swslot), pages: pages}
	for _, b := range run {
		pg, err := s.allocPage(int(am.home), b, 0, false)
		if err != nil {
			return s.finishRun(r, err)
		}
		r.pages = append(r.pages, pageinPage{pg: pg, a: b})
	}
	return s.pagein(r)
}

// anonRun returns, in slot order, a and the neighbours of a in am that
// one I/O can bring in with it: walking outward from slot, ahead and then
// behind, inside amap slots [lo, hi] and a's swap device, each neighbour
// joins while it holds exactly the next swap slot (swappedAt), and the
// first that does not ends the walk on its side. At most limit anons; the
// neighbours returned are locked. buf is scratch for a window that fits it.
func (s *System) anonRun(am *amap, a *anon, slot, lo, hi, limit int, buf []*anon) []*anon {
	if hi-lo >= len(buf) {
		buf = make([]*anon, hi-lo+1)
	}
	devLo, devHi := s.mach.Swap.DeviceBounds(a.swslot) // a run never crosses a swap device
	first, last := slot, slot                          // the run so far; slot i of am is buf[i-lo]
	buf[slot-lo] = a
	for _, step := range [2]int{+1, -1} {
		for i := slot + step; lo <= i && i <= hi && last-first+1 < limit; i += step {
			want := a.swslot + int64(i-slot)
			if want < devLo || want >= devHi {
				break
			}
			if buf[i-lo] = am.swappedAt(i, want); buf[i-lo] == nil {
				break
			}
			first, last = min(first, i), max(last, i)
		}
	}
	return buf[first-lo : last-lo+1]
}

// swappedAt returns the anon in slot i of am, locked, if its data can ride
// in a run that has swap slot want at that place: the anon is there, its
// lock is free right now, and it is swapped out, unloaned and holds
// exactly that slot. Anything else is nil. Caller holds am.mu.
func (am *amap) swappedAt(i int, want int64) *anon {
	b := am.get(i)
	if b == nil || !b.mu.TryLock() {
		return nil
	}
	if b.page != nil || b.loaned || b.swslot != want {
		b.mu.Unlock()
		return nil
	}
	return b
}

// blockOf returns the backing-store block holding page idx of o: the
// page's own index in a file (nothing past EOF), its swap slot in an
// aobj (nothing for a page never paged out). Called with o.mu held.
func (o *uobject) blockOf(idx int) (int64, bool) {
	if o.vnode != nil {
		return int64(idx), idx >= 0 && idx < o.vnode.NumPages()
	}
	slot, ok := o.aobjSlots[idx]
	return slot, ok
}

// objPagein is the get of the two pagers with a backing store: it makes
// page idx of o resident, allocating the frame itself, and with the same
// I/O reads the neighbours in [lo, hi] whose blocks extend idx's into a
// contiguous run of at most window. Called with o.mu held.
//
// Every pass allocates idx's frame and, when clustering, its
// neighbours', and each allocation drops o.mu: a concurrent fault can
// make idx resident, a concurrent pageout can reassign (or even create)
// an aobj page's slot and msync/teardown paths can free it — the
// free-during-pagein race — so the block is re-read under the retaken
// lock before deciding where the data comes from, and the pass starts
// over whenever idx's state moved under it.
func (s *System) objPagein(o *uobject, idx, lo, hi, window int) (*phys.Page, error) {
	for {
		_, backed := o.blockOf(idx)
		pg, raced, err := s.allocObjPageLocked(o, idx, !backed)
		if err != nil || raced {
			return pg, err
		}
		blk, ok := o.blockOf(idx)
		if !ok {
			// Nothing to read — a mapping past EOF, an aobj page's first
			// touch, or a slot that vanished while the lock was down:
			// zero-fill. Anonymous content exists only in RAM, so an aobj
			// page is born dirty.
			if backed {
				s.mach.Mem.Zero(pg) // allocated un-zeroed for a read that is off
			}
			pg.Dirty.Store(o.vnode == nil)
			o.pages[idx] = pg
			return pg, nil
		}
		one := [1]pageinPage{{pg: pg, idx: idx}} // a run of one stays off the heap
		r := pagein{o: o, start: blk, pages: one[:]}
		if window > 1 {
			run, start, still := s.objNeighbours(o, idx, blk, pg, lo, hi, window)
			if !still {
				continue
			}
			if run != nil {
				r.start, r.centre, r.pages = start, int(blk-start), run
			}
		}
		if err = s.pagein(r); err == nil {
			return pg, nil
		}
		if len(r.pages) == 1 {
			return nil, err
		}
		window = 1 // a failed cluster degrades to the centre page alone
	}
}

// objNeighbours builds the run around page idx of o, whose data sits in
// block blk and whose frame is pg: the pages in [lo, hi] that are not
// resident and whose blocks extend blk into a contiguous run. Called
// with o.mu held; allocating the neighbours' frames drops it, so the run
// returned (nil when idx stands alone) holds only what was re-verified
// afterwards, and begins at block start. still is false when idx itself
// became resident or changed block meanwhile: every frame, pg included,
// has been freed and the caller starts over.
func (s *System) objNeighbours(o *uobject, idx int, blk int64, pg *phys.Page, lo, hi, window int) (run []pageinPage, start int64, still bool) {
	awaiting := func(n int, b int64) bool {
		cur, ok := o.blockOf(n)
		return ok && cur == b && o.pages[n] == nil
	}
	c := newCluster(blk, idx, window)
	if o.vnode == nil {
		c.clip(s.mach.Swap.DeviceBounds(blk))
	}
	for n := lo; n <= hi; n++ {
		if b, ok := o.blockOf(n); ok && o.pages[n] == nil {
			c.offer(b, n)
		}
	}
	first, last := c.bounds()
	if first == last {
		return nil, blk, true
	}
	frames := make([]*phys.Page, last-first+1) // by block-first
	frames[blk-first] = pg
	for b := first; b <= last; b++ {
		if b == blk {
			continue
		}
		// A neighbour that became resident, or for which memory ran short,
		// leaves the window.
		n, _ := c.id(b)
		if f, raced, err := s.allocObjPageLocked(o, n, false); err == nil && !raced {
			frames[b-first] = f
		}
	}
	still = awaiting(idx, blk)
	for b := first; b <= last; b++ {
		if n, _ := c.id(b); b != blk && (frames[b-first] == nil || !awaiting(n, b)) {
			c.drop(b)
		}
	}
	runLo, runHi := c.bounds()
	if still {
		run = make([]pageinPage, 0, runHi-runLo+1)
	}
	for b := first; b <= last; b++ {
		switch f := frames[b-first]; {
		case f == nil:
		case !still || b < runLo || b > runHi:
			s.mach.Mem.Free(f)
		default:
			n, _ := c.id(b)
			run = append(run, pageinPage{pg: f, idx: n})
		}
	}
	return run, runLo, still
}

// objPage returns page idx of o, resident: the pager's get brings it in
// if need be — the pager allocates the page itself (§6), and may fill
// other non-resident pages of [lo, hi], the range the caller is prepared
// to use, with the same I/O. A Busy page belongs to a flight; unless
// busyOK the call sleeps until the completion gives it back. Called with
// o.mu held; both get (around its allocations) and the sleep drop it, so
// the page is looked up afresh after each — get's raced path can hand
// back a page that a concurrent flush claimed in that window.
func (s *System) objPage(o *uobject, idx, lo, hi int, busyOK bool) (*phys.Page, error) {
	for {
		pg, ok := o.pages[idx]
		if !ok {
			var err error
			if pg, err = o.ops.get(o, idx, lo, hi); err != nil {
				return nil, err
			}
		}
		if busyOK || !pg.Busy.Load() {
			return pg, nil
		}
		s.waitObjPageIdle(o, pg)
	}
}
