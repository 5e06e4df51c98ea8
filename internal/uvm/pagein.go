package uvm

import (
	"uvm/internal/phys"
)

// Pageins: every read of a page from backing store — the paper's pager
// get, in which the pager allocates the pages itself (§6) — is one
// mechanism, the read-side twin of the flight (flight.go). A pagein is a
// run of freshly allocated frames bound for consecutive backing-store
// blocks (swap slots, or pages of a vnode). readRun marks the run Busy
// and fills it with exactly one I/O; finishRun is the one install site:
// Busy off, Dirty off, each frame attached to its owner (a.page or
// o.pages at idx), every frame but the one the fault is about to map
// activated, every counter bumped. When the I/O — or the allocation
// before it — fails, finishRun frees every frame of the run and attaches
// nothing.
//
// A single-page pagein is a run of length one: the same one-block disk
// command. There is one rule for every backing store: a pagein fills the
// fault's advice window with one I/O. How far a run may reach is the
// pager's decision (that is why get allocates the pages), inside what the
// fault is prepared to use — the entry's advice window clipped to the
// entry:
//
//   - The vnode pager reads the maximal stretch of non-resident pages
//     around the faulting index inside that range (and inside the file). A
//     file's blocks are consecutive, so the block of page idx is idx.
//   - Swap-backed memory has no fixed home, so the layout is made to fit:
//     when reclaim reassigns a dirty cluster into one contiguous run
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
// One walk (walkRun) decides what joins every run: outward from the
// faulting page, ahead first and then behind, a neighbour joins while its
// page is missing and its block is exactly the next one, and the first
// that is not ends the walk on its side. A file's block is its index, and
// pageout lays swap runs out in index order, so a run in block order is a
// run in index order and a fault pays for the run it reads and at most
// two probes more. The two kinds of owner differ only in their locking
// protocol:
//
//   - anonRun walks the faulting anon's VA neighbours in the amap. Anon
//     locks are peers in the lock order (blocking could deadlock with a
//     fault walking the other way), so neighbours are TryLocked only — a
//     busy one ends the walk on its side — and the locks stay held across
//     the frame allocation and the I/O.
//   - objNeighbours walks the faulting index's neighbours in the object:
//     its page index and, for an aobj, its slot index. Every frame
//     allocation drops o.mu (allocObjPageLocked), so it allocates the
//     walk's frames in ascending block order, re-verifies the faulting
//     index under the retaken lock and walks again over the neighbours
//     that are still waiting; objPagein loops until the page's state holds
//     still, and from the final check to the read the lock is held
//     continuously.
//
// Clustering is an optimisation, never a new way to fail a fault: a
// cluster that cannot get its frames or whose read fails degrades to the
// centre page alone — the same mechanism again with a run of one — and
// only that read's error fails the fault. Pages brought in for
// neighbours are activated but not mapped; the fault-time lookahead maps
// the now-resident neighbours in the same fault.

// pageinStack is the longest run a pagein reads, and so the length of the
// stack arrays its runs live in: the deepest advice window (sequential —
// the page and eight ahead). A run never reaches past its fault's window.
const pageinStack = 9

// pageinPage is one frame of a pagein and the place it attaches.
type pageinPage struct {
	pg  *phys.Page
	a   *anon // run of anons: attaches as a.page
	idx int   // run of object pages: attaches to o.pages at idx
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
// only function in this package that reads backing store. The frames
// share the blocks read (phys.Page.Share); no page bytes are copied.
func (s *System) readRun(r pagein) error {
	var stack [pageinStack][]byte
	blocks := stack[:len(r.pages)]
	for _, p := range r.pages {
		p.pg.Busy.Store(true)
	}
	var err error
	if r.o != nil && r.o.vnode != nil {
		err = r.o.vnode.ReadBlocks(int(r.start), blocks)
	} else {
		err = s.mach.Swap.ReadBlocks(r.start, blocks)
	}
	if err == nil {
		for i, p := range r.pages {
			p.pg.Share(blocks[i])
		}
	}
	return err
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
			r.o.pages.Set(p.idx, p.pg)
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
	s.mach.Stats.PageIns.Add(n)
	switch {
	case r.o == nil:
		s.mach.Stats.AnonPageIns.Add(n)
		if n > 1 {
			s.mach.Stats.PageinClusters.Inc()
			s.mach.Stats.PageinClustered.Add(n - 1)
		}
	case r.o.vnode == nil && n > 1:
		s.mach.Stats.AobjPageinClusters.Inc()
		s.mach.Stats.AobjPageinClustered.Add(n - 1)
	}
	return nil
}

// walkRun grows a pagein run outward from page c, whose block is blk,
// inside [lo, hi]: ahead first, then behind, at most limit pages. Page i
// joins while holds(i, blk+i-c) — it is missing and sits in exactly the
// block that extends the run — and the first that does not ends the walk
// on its side. The run is [first, last].
func walkRun(c int, blk int64, lo, hi, limit int, holds func(i int, want int64) bool) (first, last int) {
	first, last = c, c
	for _, step := range [2]int{+1, -1} {
		for i := c + step; lo <= i && i <= hi && last-first+1 < limit && holds(i, blk+int64(i-c)); i += step {
			first, last = min(first, i), max(last, i)
		}
	}
	return first, last
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
// one I/O can bring in with it: walkRun over amap slots [lo, hi] from
// slot, where a neighbour joins while it holds exactly the next swap slot
// (swappedAt) inside the swap disk. At most limit anons; the neighbours
// returned are locked. buf holds the window.
func (s *System) anonRun(am *amap, a *anon, slot, lo, hi, limit int, buf []*anon) []*anon {
	slots := s.mach.Swap.Slots()
	buf[slot-lo] = a // slot i of am is buf[i-lo]
	first, last := walkRun(slot, a.swslot, lo, hi, limit, func(i int, want int64) bool {
		if want < 0 || want >= slots {
			return false
		}
		buf[i-lo] = am.swappedAt(i, want)
		return buf[i-lo] != nil
	})
	return buf[first-lo : last-lo+1]
}

// swappedAt returns the anon in slot i of am, locked, if its data can ride
// in a run that has swap slot want at that place: the anon is there, its
// lock is free right now, and it is swapped out and holds exactly that
// slot. Anything else is nil. Caller holds am.mu.
func (am *amap) swappedAt(i int, want int64) *anon {
	b := am.get(i)
	if b == nil || !b.mu.TryLock() {
		return nil
	}
	if b.page != nil || b.swslot != want {
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
	return o.aobjSlots.Get(idx)
}

// objPagein is the get of the two pagers with a backing store: it makes
// page idx of o resident, allocating the frame itself, and with the same
// I/O reads the neighbours in [lo, hi] that walkRun lets join idx's
// block, at most window pages. Called with o.mu held.
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
			o.pages.Set(idx, pg)
			return pg, nil
		}
		var run [pageinStack]pageinPage
		run[0] = pageinPage{pg: pg, idx: idx}
		r := pagein{o: o, start: blk, pages: run[:1]}
		if window > 1 {
			var still bool
			if r.pages, r.start, still = s.objNeighbours(o, idx, blk, pg, lo, hi, window, run[:]); !still {
				continue
			}
			r.centre = int(blk - r.start)
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
// block blk and whose frame is pg: walkRun over [lo, hi], at most window
// pages, where a neighbour joins while it is not resident and its block
// is the next one. Called with o.mu held; allocating the neighbours'
// frames, in ascending block order, drops it, so idx is re-verified
// afterwards and the walk is made again over the neighbours that got a
// frame and still await their block. The run returned lives in buf, holds
// idx and begins at block start. still is false when idx itself became
// resident or changed block meanwhile: every frame, pg included, has been
// freed and the caller starts over.
func (s *System) objNeighbours(o *uobject, idx int, blk int64, pg *phys.Page, lo, hi, window int, buf []pageinPage) (run []pageinPage, start int64, still bool) {
	awaiting := func(n int, want int64) bool {
		b, ok := o.blockOf(n)
		cur, _ := o.pages.Get(n)
		return ok && b == want && cur == nil
	}
	first, last := walkRun(idx, blk, lo, hi, window, awaiting)
	for n := first; n <= last; n++ { // page n is buf[n-first]
		buf[n-first] = pageinPage{pg: pg, idx: n}
		if n == idx {
			continue
		}
		// A neighbour that became resident, or for which memory ran short,
		// leaves the window.
		f, raced, err := s.allocObjPageLocked(o, n, false)
		if err != nil || raced {
			f = nil
		}
		buf[n-first].pg = f
	}
	still = awaiting(idx, blk)
	runFirst, runLast := walkRun(idx, blk, first, last, window, func(n int, want int64) bool {
		return buf[n-first].pg != nil && awaiting(n, want)
	})
	for n := first; n <= last; n++ {
		if f := buf[n-first].pg; f != nil && (!still || n < runFirst || n > runLast) {
			s.mach.Mem.Free(f)
		}
	}
	return buf[runFirst-first : runLast-first+1], blk + int64(runFirst-idx), still
}

// objPage returns page idx of o, resident: the pager's get brings it in
// if need be — the pager allocates the page itself (§6), and may fill
// other non-resident pages of [lo, hi], the range the caller is prepared
// to use, with the same I/O. A Busy page belongs to a flight; the call
// sleeps until the completion gives it back. Called with
// o.mu held; both get (around its allocations) and the sleep drop it, so
// the page is looked up afresh after each — get's raced path can hand
// back a page that a concurrent flush claimed in that window.
func (s *System) objPage(o *uobject, idx, lo, hi int) (*phys.Page, error) {
	for {
		pg, ok := o.pages.Get(idx)
		if !ok {
			var err error
			if pg, err = o.ops.get(o, idx, lo, hi); err != nil {
				return nil, err
			}
		}
		if !pg.Busy.Load() {
			return pg, nil
		}
		s.waitObjPageIdle(o, pg)
	}
}
