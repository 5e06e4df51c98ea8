package uvm

import (
	"slices"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/swap"
	"uvm/internal/vfs"
)

// flight is UVM's one page-write mechanism — the pager API's single
// put(pages, sync|async) (§6) with its single completion path behind it.
// Every write of a dirty page to backing store, whoever asks for it
// (reclaim's pageout, Msync, vnode recycling, last-unmap flush), is a
// flight:
//
//   - a set of pages the submitter has marked Busy — claimed for this
//     flight, so every other path skips or sleeps on them;
//   - the owner locks handed over with those pages, possibly none. The
//     reclaim pass hands over the anon/object locks its scan TryLocked, so a
//     fault on a page mid-pageout blocks on its owner; flushes hand over
//     nothing and rely on Busy alone;
//   - a completion policy. evict: the written page is detached from its
//     owner and freed. clean: it stays resident, no longer dirty. Either
//     way a page whose write failed stays dirty and merely gives its Busy
//     claim back (an evict flight also returns it to the active queue);
//   - a pending-run counter. The flight leaves as one or more runs, each
//     a single I/O of consecutive blocks; the last run to complete
//     finishes the whole flight, and wait returns once it has.
//
// Run length is a property of the pages, not of who waits: an object's
// pages are cut into runs of consecutive indices up to wbClusterMax
// (objRuns), and pages bound for swap are placed on one fresh contiguous
// slot run (swapRun), whatever the flight's mode. "Synchronous" is not a
// second pipeline, it is a flag that decides only whose clock pays and
// where the completion runs: a synchronous flight issues each run with
// the clock-charged primitive (Swap.WriteBlocks, Vnode.WriteBlocks) and
// runs the completion inline on the submitter, one run at a time,
// stopping at the first error. An asynchronous flight pushes its runs
// through the backend's bounded in-flight window (disk.AsyncWriter,
// deferred charging) and its completions arrive on I/O goroutines. A run
// that fails — torn or not — leaves every one of its pages dirty.
// System.flights counts the flights not yet finished; every completion
// broadcasts flCond.
//
// Completion context: runDone may run on an I/O goroutine holding the
// handed-over owner locks and nothing else. It may touch page state, the
// page queues, the swap allocator and flMu with its condvars; it must
// never lock a map, an amap, an anon or an object.
type flight struct {
	s      *System
	evict  bool     // completion policy: detach and free; false = clean in place
	async  bool     // runs complete on I/O goroutines; false = inline, clock-charged
	owners ownerSet // owner locks handed over with the pages; the last completion releases them
	issued int      // pages handed to the async window (submitter only)

	// Guarded by s.flMu — counters and result lists only: the last
	// completer does the page work after unlocking.
	pending int          // runs issued and not completed, plus the submitter's hold
	ok      []*phys.Page // pages of runs that were written
	failed  []*phys.Page // pages of runs that failed or were never issued
	err     error        // first error
	done    bool
}

// newFlight starts a flight of up to npages pages. The submitter then
// issues runs (objRuns, swapRun) over pages it has marked Busy
// and calls submit exactly once; the owners' locks belong to the flight
// from here on.
func (s *System) newFlight(evict, async bool, owners ownerSet, npages int) *flight {
	s.flights.Add(1)
	return &flight{s: s, evict: evict, async: async, owners: owners, pending: 1,
		ok: make([]*phys.Page, 0, npages)}
}

// run issues one I/O carrying pages: to consecutive pages of vn starting
// at index start, or (vn nil) to consecutive swap slots starting at
// start.
func (fl *flight) run(pages []*phys.Page, vn *vfs.Vnode, start int64) {
	s := fl.s
	s.flMu.Lock()
	fl.pending++
	err := fl.err
	s.flMu.Unlock()
	if !fl.async {
		var stack [maxCluster][]byte
		switch {
		case err != nil: // an earlier run failed: stop writing
		case vn != nil:
			err = vn.WriteBlocks(int(start), frozen(stack[:0], pages))
		default:
			err = s.mach.Swap.WriteBlocks(start, frozen(stack[:0], pages))
		}
		fl.runDone(pages, vn == nil, err)
		return
	}
	done := func(err error) {
		if gate := s.wbGate; gate != nil && !fl.evict {
			gate()
		}
		fl.runDone(pages, vn == nil, err)
	}
	if vn != nil || !fl.evict {
		s.mach.Stats.ObjWbClusters.Inc()
		s.mach.Stats.ObjWbPages.Add(int64(len(pages)))
	} else {
		s.mach.Stats.PdAsyncClusters.Inc()
		s.mach.Stats.PdAsyncPages.Add(int64(len(pages)))
	}
	// The I/O goroutine holds the async run's blocks: they live on the heap.
	blocks := frozen(make([][]byte, 0, len(pages)), pages)
	if vn == nil {
		s.mach.Swap.WriteClusterAsync(start, blocks, done)
	} else if err = vn.WriteClusterAsync(int(start), blocks, done); err != nil {
		// Malformed request, reported synchronously: done is never called.
		fl.runDone(pages, false, err)
		return
	}
	fl.issued += len(pages)
}

// frozen appends the pages' immutable buffers (phys.Page.Freeze) to
// blocks, for a run's write to hand to the disk.
func frozen(blocks [][]byte, pages []*phys.Page) [][]byte {
	for _, pg := range pages {
		blocks = append(blocks, pg.Freeze())
	}
	return blocks
}

// fail records pages that could not even be issued (no swap slot, no
// home in the file): they complete as a failed run without any I/O.
func (fl *flight) fail(pages []*phys.Page, toSwap bool, err error) {
	fl.s.flMu.Lock()
	fl.pending++
	fl.s.flMu.Unlock()
	fl.runDone(pages, toSwap, err)
}

// vnodeRun issues one run of vn's pages, consecutive from index idx. A
// mapping past EOF zero-fills, so a dirty page can sit beyond the file:
// it has nowhere to go and must not poison the in-range pages sharing its
// run.
func (fl *flight) vnodeRun(vn *vfs.Vnode, idx int, pages []*phys.Page) {
	n := min(len(pages), max(vn.NumPages()-idx, 0))
	if n > 0 {
		fl.run(pages[:n], vn, int64(idx))
	}
	if n < len(pages) {
		fl.fail(pages[n:], false, vfs.ErrBadOffset)
	}
}

// swapRun assigns swap slots to the anon/aobj pages and issues their
// writes — the one place pageout and writeback place pages on swap. Two
// or more pages have their locations reassigned into one fresh contiguous
// run of slots (freeing any old scattered ones) and leave in a single
// I/O: the "dynamic reassignment of swap location at page-level
// granularity" of §5.3/§6. Since the locations are ours to choose, the
// run is laid out for the read that will follow: the pages take their
// slots in layout-key order (layOut), so VA neighbours that leave together
// come back with one I/O (anonPagein, aobjPager.get). Under
// cfg.DisableClustering, or when swap is too fragmented for a run, each
// page goes to its own slot (existing, else freshly allocated) with its
// own I/O — precisely BSD VM's behaviour (Figure 5's two curves). On a
// dead swap device the pages fail without I/O. Caller holds every page's
// owner lock.
func (fl *flight) swapRun(pages []*phys.Page) {
	s := fl.s
	if fl.stopped(pages) {
		return
	}
	if s.mach.SwapDisk.Dead() {
		fl.fail(pages, true, disk.ErrDeviceDead)
		return
	}
	if !s.cfg.DisableClustering && len(pages) > 1 {
		if start, err := s.mach.Swap.AllocContig(len(pages)); err == nil {
			layOut(pages)
			for i, pg := range pages {
				s.reassignSlot(pg, start+int64(i))
			}
			fl.run(pages, nil, start)
			return
		}
	}
	for i, pg := range pages {
		if fl.stopped(pages[i:]) {
			return
		}
		slot := s.currentSlot(pg)
		if slot == swap.NoSlot {
			var err error
			if slot, err = s.mach.Swap.Alloc(); err != nil {
				// Swap exhausted: the page stays dirty and resident.
				fl.fail(pages[i:i+1], true, err)
				continue
			}
			s.setSlot(pg, slot)
		}
		fl.run(pages[i:i+1], nil, slot)
	}
}

// layOut sorts pages bound for one run of swap slots by layout key, pages
// with equal keys keeping the order they came in.
func layOut(pages []*phys.Page) {
	type keyed struct {
		layoutKey
		pg *phys.Page
	}
	byKey := make([]keyed, len(pages))
	for i, pg := range pages {
		byKey[i].pg = pg
		switch owner := pg.Owner().(type) {
		case *anon:
			byKey[i].layoutKey = owner.layout
		case *uobject:
			byKey[i].layoutKey = newLayoutKey(owner.id, pageIdx(pg))
		}
	}
	slices.SortStableFunc(byKey, func(a, b keyed) int { return a.compare(b.layoutKey) })
	for i := range byKey {
		pages[i] = byKey[i].pg
	}
}

// stopped reports whether a synchronous flight has already failed — it
// stops at its first error — and if so fails pages, bound for swap,
// without touching their slots.
func (fl *flight) stopped(pages []*phys.Page) bool {
	if fl.async {
		return false
	}
	fl.s.flMu.Lock()
	err := fl.err
	fl.s.flMu.Unlock()
	if err != nil {
		fl.fail(pages, true, err)
	}
	return err != nil
}

// objRuns issues o's claimed pages, in ascending index order, as runs of
// consecutive indices, at most wbClusterMax long: the one run policy of
// every submitter, whatever the flight's mode. Vnode pages go to the
// file; aobj pages to swap. Caller holds o.mu.
func (fl *flight) objRuns(o *uobject, pages []*phys.Page) {
	for lo, hi := 0, 0; lo < len(pages); lo = hi {
		hi = runEnd(pages, lo, fl.s.wbClusterMax())
		if o.vnode != nil {
			fl.vnodeRun(o.vnode, pageIdx(pages[lo]), pages[lo:hi])
		} else {
			fl.swapRun(pages[lo:hi])
		}
	}
}

// submit drops the submitter's hold: every run has been issued. If they
// have all completed already — always, for a synchronous flight — the
// flight finishes here, on the submitter.
func (fl *flight) submit() { fl.runDone(nil, false, nil) }

// runDone is the completion of one run, and the flight's — the VM's —
// only completion function. Asynchronous runs call it from an I/O
// goroutine, synchronous ones inline. It records the run's result; the
// last completion finishes the flight.
//
//uvm:completion
func (fl *flight) runDone(pages []*phys.Page, toSwap bool, err error) {
	s := fl.s
	pdRun := fl.evict && toSwap
	switch {
	case err == nil:
		if pdRun && len(pages) > 1 {
			s.mach.Stats.PdClusters.Inc()
		}
	case !fl.async:
	case pdRun:
		s.mach.Stats.PdAsyncErrors.Inc()
	default:
		s.mach.Stats.ObjWbErrors.Inc()
	}
	s.flMu.Lock()
	if err != nil {
		fl.failed = append(fl.failed, pages...)
		if fl.err == nil {
			fl.err = err
		}
	} else {
		fl.ok = append(fl.ok, pages...)
	}
	fl.pending--
	last := fl.pending == 0
	s.flMu.Unlock()
	if !last {
		return
	}

	// Last completion: nobody else touches the result lists any more.
	// Apply the policy, give the owners back, then publish.
	for _, pg := range fl.ok {
		if fl.evict {
			s.evictPage(pg, pg.Owner())
		} else {
			pg.Dirty.Store(false)
			pg.Busy.Store(false)
		}
	}
	// A failed page stays dirty. (A freshly assigned swap slot then holds
	// whatever the failed write left, which is harmless: a dirty page is
	// rewritten before its slot is trusted.)
	for _, pg := range fl.failed {
		pg.Busy.Store(false)
		if fl.evict {
			s.mach.Mem.Activate(pg) // a later round retries
		}
	}
	s.mach.Stats.PageOuts.Add(int64(len(fl.ok)))
	fl.owners.releaseAll()
	s.flMu.Lock()
	fl.done = true
	s.flights.Add(-1)
	s.flGen++
	s.flCond.Broadcast()
	s.flMu.Unlock()
}

// wait blocks until the flight has finished and returns the pages
// written and the first error.
func (fl *flight) wait() (int, error) {
	s := fl.s
	s.flMu.Lock()
	defer s.flMu.Unlock()
	for !fl.done {
		s.flCond.Wait()
	}
	return len(fl.ok), fl.err
}

// waitFlight sleeps until some flight completes. It reports false,
// without sleeping, when none is pending.
func (s *System) waitFlight() bool {
	s.flMu.Lock()
	defer s.flMu.Unlock()
	return s.waitFlightLocked()
}

// waitFlightLocked is waitFlight with flMu held. A flight finishes under
// flMu, so one counted here has not finished yet.
func (s *System) waitFlightLocked() bool {
	if s.flights.Load() == 0 {
		return false
	}
	for gen := s.flGen; s.flGen == gen; {
		s.flCond.Wait()
	}
	return true
}

// evictPage detaches a clean (or just-cleaned) page from its owner and
// frees it. Caller holds the owner's lock.
func (s *System) evictPage(pg *phys.Page, owner any) {
	pg.Dirty.Store(false)
	pg.Busy.Store(false)
	switch o := owner.(type) {
	case *anon:
		o.page = nil
	case *uobject:
		o.pages.Delete(pageIdx(pg))
	}
	s.mach.Mem.Free(pg)
	s.mach.Stats.PdFreed.Inc()
}

func pageIdx(pg *phys.Page) int { return param.OffToPage(pg.Off()) }

// runEnd returns the end of the run of pages at consecutive indices that
// starts at pages[lo] (ascending), at most max long — each run leaves in
// one I/O.
func runEnd(pages []*phys.Page, lo, max int) int {
	hi := lo + 1
	for hi < len(pages) && hi-lo < max && pageIdx(pages[hi]) == pageIdx(pages[hi-1])+1 {
		hi++
	}
	return hi
}

func (s *System) currentSlot(pg *phys.Page) int64 {
	switch owner := pg.Owner().(type) {
	case *anon:
		return owner.swslot
	case *uobject:
		if slot, ok := owner.aobjSlots.Get(pageIdx(pg)); ok {
			return slot
		}
	}
	return swap.NoSlot
}

func (s *System) setSlot(pg *phys.Page, slot int64) {
	switch owner := pg.Owner().(type) {
	case *anon:
		owner.swslot = slot
	case *uobject:
		owner.aobjSlots.Set(pageIdx(pg), slot)
	}
}

// reassignSlot frees a page's old swap location (if any) and assigns the
// new one.
func (s *System) reassignSlot(pg *phys.Page, slot int64) {
	if old := s.currentSlot(pg); old != swap.NoSlot {
		s.mach.Swap.Free(old)
		s.mach.Stats.PdReassigned.Inc()
	}
	s.setSlot(pg, slot)
}
