package uvm

import (
	"sort"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// Reclaim is one mechanism with one loop in front of it. An allocator
// that finds no free frame (allocPage) runs the one reclaimScan pass
// itself, on its own goroutine — unless another allocator is already
// running one, in which case it waits for that pass to end and retries:
// reclaim is single-flight, as it is in a kernel that reclaims under one
// lock. There is no daemon, no doorbell and no watermark: a pass starts
// when the free list is empty.
//
// The pass's state — whether one is running, and the generation of the
// last one to end — lives under the flight mutex (flMu), and a waiter
// sleeps on the flight condvar, so a waiter watches for the end of a
// pass and for a flight in one critical section. The pass acquires owner
// locks only with TryLock, so it never blocks on a lock a waiter holds.
//
// With cfg.AsyncPageout the pass submits its pageout through the
// backends' in-flight windows and returns; an allocator whose pass only
// submitted waits for one flight to complete and retries. After Shutdown
// every pass is synchronous.

// allocRetryLimit is a livelock backstop: an allocator that keeps
// losing freshly reclaimed pages to other goroutines eventually reports
// deadlock rather than spinning forever.
const allocRetryLimit = 1 << 16

// noHome is allocPage's home for a frame no one address space owns: an
// object page or a kernel page. phys.Mem.AllocNear then rotates across the
// shards as Alloc does.
const noHome = -1

// allocPage allocates a page frame near shard home (see
// phys.Mem.AllocNear); it is the one loop every allocator that finds no
// free frame goes through. It runs the single reclaim pass, or waits for
// the one another allocator is running, and retries. ErrDeadlock means
// its own pass freed nothing while no frame was free and no flight
// pending.
func (s *System) allocPage(home int, owner any, off param.PageOff, zero bool) (*phys.Page, error) {
	for attempt := 0; attempt < allocRetryLimit; attempt++ {
		if pg, err := s.mach.Mem.AllocNear(home, owner, off, zero); err == nil {
			return pg, nil
		}
		async, ok := s.takeReclaim()
		if !ok {
			continue // another allocator's pass ended: retry
		}
		freed, submitted := s.reclaimPass(async)
		switch {
		case freed > 0:
		case submitted > 0:
			s.waitFlight() // its completion frees the pages it carries
		case s.mach.Mem.FreePages() == 0 && !s.waitFlight():
			// Nothing evictable, no frame freed elsewhere meanwhile, and no
			// flight whose completion could free or clean one.
			return nil, vmapi.ErrDeadlock
		}
	}
	return nil, vmapi.ErrDeadlock
}

// takeReclaim takes the single-flight slot and reports whether the pass
// may submit asynchronously. If a pass is running, it waits for that
// pass to end instead and reports ok false.
func (s *System) takeReclaim() (async, ok bool) {
	s.flMu.Lock()
	if s.reclaiming {
		s.mach.Stats.PdBlocked.Inc()
		// How long (simulated) this allocator was stalled: the clock
		// advances on the pass's work while it sleeps.
		start := s.mach.Clock.Now()
		for gen := s.reclaimGen; s.reclaimGen == gen; {
			s.flCond.Wait()
		}
		s.flMu.Unlock()
		s.mach.Stats.PdWaitNs.Add(int64(s.mach.Clock.Since(start)))
		return false, false
	}
	s.reclaiming = true
	// The ablation (one page, one I/O — Figure 5's BSD curve) and a
	// system that is shutting down keep every write synchronous.
	async = s.cfg.AsyncPageout && !s.cfg.DisableClustering && !s.shutdown
	s.flMu.Unlock()
	return async, true
}

// reclaimPass runs the pass in the slot its caller took — reclaimScan
// with the allocator's batch as its target — then ends it and wakes every
// allocator waiting on it.
func (s *System) reclaimPass(async bool) (freed, submitted int) {
	freed, submitted = s.reclaimScan(reclaimBatch, async)
	s.mach.Stats.PdRounds.Inc()
	s.flMu.Lock()
	s.reclaiming = false
	s.reclaimGen++
	s.flCond.Broadcast()
	s.flMu.Unlock()
	return freed, submitted
}

// ownerSet tracks the anon/object locks a reclaim pass holds for pages
// it has clustered for pageout. Owners are acquired with TryLock only —
// reclaim runs inside allocation paths that may already hold map, amap,
// anon or object locks, and skipping a busy owner is always safe —
// so reclaim can never deadlock against a fault in progress.
type ownerSet map[any]struct{}

// tryAcquire locks owner unless it is already held by this set or
// unavailable. It reports whether the caller may proceed under the lock,
// and whether the lock was newly acquired (and must be released if the
// page is not clustered).
func (os ownerSet) tryAcquire(owner any) (proceed, acquired bool) {
	if _, held := os[owner]; held {
		return true, false
	}
	switch o := owner.(type) {
	case *anon:
		acquired = o.mu.TryLock()
	case *uobject:
		acquired = o.mu.TryLock()
	}
	return acquired, acquired
}

func (os ownerSet) keep(owner any) { os[owner] = struct{}{} }

func releaseOwner(owner any) {
	switch o := owner.(type) {
	case *anon:
		o.mu.Unlock()
	case *uobject:
		o.mu.Unlock()
	}
}

// owns is the re-check after locking the owner read from pg lock-free (pg
// may have been freed or re-homed meanwhile): pg still names owner, and
// owner has pg resident. An orphaned frame's nil owner owns it.
func owns(owner any, pg *phys.Page) bool {
	if pg.Owner() != owner {
		return false
	}
	switch o := owner.(type) {
	case *anon:
		return o.page == pg
	case *uobject:
		cur, _ := o.pages.Get(pageIdx(pg))
		return cur == pg
	}
	return owner == nil
}

func (os ownerSet) releaseAll() {
	//uvm:maporder-ok unlock order of independent owner locks is immaterial
	for owner := range os {
		releaseOwner(owner)
		delete(os, owner)
	}
}

// reclaimScan runs the second-chance reclaim scan over the inactive
// queue in global LRU order: up to four passes of scan, classify and
// submit until target pages are freed (or in flight, when async). It
// returns the pages freed synchronously and the pages submitted as
// in-flight asynchronous cluster writes. It is the body of the one
// reclaim pass (reclaim), and its operation order is byte-deterministic
// on single-threaded runs.
//
// A scan that frees and submits nothing reaps the frames parked in idle
// per-CPU allocation magazines into the global pool and counts them as
// freed: they were already counted free — the free count never lied —
// but only the goroutines that parked them could reach them.
//
// Its signature improvement over BSD VM (§6) is aggressive clustering of
// anonymous memory: because anonymous pages have no permanent home on
// backing store, reclaim *reassigns* their swap locations so that all
// the dirty anonymous pages it has collected — whatever their offsets —
// occupy one contiguous run of slots, in VA order so a later pagein can
// read neighbours back together, and go out in a single large I/O
// (flight.swapRun). Dirty file pages have fixed homes: they are batched
// per object and leave, in the same flight, as runs of consecutive file
// blocks (flight.objRuns).
//
// Concurrency: each candidate's owner is TryLocked and the page
// re-verified under the lock (it may have been freed, re-homed or
// re-referenced since the queue snapshot). Clean pages are freed on the
// spot. Dirty pages are marked Busy and leave as one evict flight per
// pass, which takes over the locks of their owners until its last write
// completes, so a concurrent fault on a page mid-pageout blocks on the
// owner and then pages back in from the freshly assigned slot. Only one
// pass runs at a time, but the TryLock/re-verify protocol does not rely
// on it: tests call reclaimScan directly beside a pass, and each skips
// the other's pages.
func (s *System) reclaimScan(target int, async bool) (freed, submitted int) {
	for pass := 0; pass < 4 && freed+submitted < target; pass++ {
		if s.mach.Mem.InactivePages() < target*2 {
			s.mach.Mem.RefillInactive(target * 2)
		}
		// Dirty pages claimed for this pass's flight: anon and aobj pages
		// in one cluster bound for swap; vnode pages per object, in
		// first-touch order so runs are issued in the deterministic order
		// the queue scan discovered the objects — submission order decides
		// the disk head's path.
		var cluster []*phys.Page
		var vnWb map[*uobject][]*phys.Page
		var vnWbOrder []*uobject
		vnPages := 0
		held := make(ownerSet)
		s.mach.Mem.ScanInactive(target*4, func(pg *phys.Page) bool {
			if freed+submitted+len(cluster)+vnPages >= target {
				return false
			}
			if pg.Referenced.Load() {
				// Second chance — but only if the page is still inactive;
				// it may have been freed (and even reallocated) since the
				// queue snapshot.
				s.mach.Mem.ActivateIfInactive(pg)
				return true
			}
			owner := pg.Owner()
			proceed, acquired := held.tryAcquire(owner)
			if !proceed {
				return true // owner busy, gone or foreign: skip this page
			}
			// Re-verify under the owner lock: the frame must still belong
			// to this owner, still be evictable, and still be on the
			// inactive queue. A snapshot entry may since have been freed
			// and handed to a fault in progress, which names the page's
			// anon before it locks it; the frame sits on no queue until
			// that fault has mapped it.
			obj, _ := owner.(*uobject)
			claimed := false
			if owns(owner, pg) && !pg.Busy.Load() && !pg.Wired() && !pg.Loaned() && s.mach.Mem.Inactive(pg) {
				s.mach.MMU.PageProtect(pg, param.ProtNone)
				switch {
				case !pg.Dirty.Load():
					// Clean: the backing copy is current; just free.
					s.evictPage(pg, owner)
					freed++
				case obj == nil || obj.isAObj():
					// Anonymous memory (anon or aobj page) clusters to swap.
					if claimed = len(cluster) < maxCluster; claimed {
						cluster = append(cluster, pg)
					}
				default:
					// Dirty vnode pages are written back through the pager,
					// batched per object.
					if vnWb == nil {
						vnWb = make(map[*uobject][]*phys.Page)
					}
					if _, ok := vnWb[obj]; !ok {
						vnWbOrder = append(vnWbOrder, obj)
					}
					vnWb[obj] = append(vnWb[obj], pg)
					vnPages++
					claimed = true
				}
			}
			switch {
			case claimed:
				pg.Busy.Store(true)
				s.mach.Mem.Dequeue(pg)
				held.keep(owner)
			case acquired:
				releaseOwner(owner)
			}
			return true
		})
		if len(cluster)+vnPages == 0 {
			continue // nothing claimed, so no owner lock is held
		}

		// The claimed pages, every owner lock this pass kept, and the duty
		// to free the pages all travel with the flight.
		fl := s.newFlight(true, async, held, len(cluster)+vnPages)
		for _, o := range vnWbOrder {
			pages := vnWb[o]
			sort.Slice(pages, func(i, j int) bool { return pages[i].Off() < pages[j].Off() })
			fl.objRuns(o, pages)
		}
		if len(cluster) > 0 {
			fl.swapRun(cluster)
		}
		fl.submit()
		if async {
			submitted += fl.issued
			continue
		}
		n, err := fl.wait()
		freed += n
		if err != nil {
			break // could not clean (e.g. swap exhausted): stop trying
		}
	}
	if freed+submitted == 0 {
		freed = s.mach.Mem.ReapCaches()
	}
	return freed, submitted
}
