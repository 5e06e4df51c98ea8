package uvm

import (
	"sort"
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// pagedaemon is UVM's asynchronous pageout daemon: one goroutine per
// booted System that reclaims memory so allocating goroutines do not
// have to.
//
// Wakeup protocol:
//
//  1. phys.Mem calls kick (via the low-water callback) whenever an
//     allocation leaves fewer than `low` pages free. kick is a
//     non-blocking send on a 1-buffered doorbell channel, so it is safe
//     from any context and coalesces redundant wakeups.
//  2. An allocator that finds the free list empty registers as a waiter
//     and blocks on the condition variable in waitForFree; the daemon
//     broadcasts after every completed reclaim round.
//  3. The daemon reclaims toward the high watermark (2×low) per round
//     and re-kicks itself while it is making progress below the low
//     mark, so it normally runs ahead of allocators and they never block
//     at all.
//  4. A round that frees nothing is not a stall while flights are
//     pending (System.flights): the waiter sleeps on until one
//     completes, and retries. Otherwise the round does not re-kick and
//     the allocator, after one more attempt, runs the one inline pass
//     itself (allocPage), which skips owners it holds itself the way
//     the daemon does (TryLock + skip).
//
// Each round is one reclaimScan of the whole inactive queue, in global
// LRU order; the daemon is the only watermark coordinator. Its state
// lives under the flight mutex (flMu), so a waiter watches for a round
// and then a flight in one critical section; its condvar is its own, so
// rounds do not wake page-busy sleepers.
//
// Shutdown (System.Shutdown) marks the daemon, broadcasts so blocked
// allocators unwedge immediately, joins the goroutine, and then waits
// out the flights in the air. The System stays usable afterwards —
// allocPage degrades to inline reclaim — so teardown ordering is
// forgiving.
type pagedaemon struct {
	s *System

	// Watermarks, fixed at boot: wake the daemon when free pages drop
	// below low; each round reclaims toward high (2×low).
	low, high int

	wake chan struct{} // doorbell; buffered(1), rung by kick
	done chan struct{} // closed when the daemon goroutine exits

	// Guarded by s.flMu.
	cond     *sync.Cond // signalled after every completed round
	gen      uint64     // completed reclaim rounds
	genFreed int        // pages freed by the most recent round
	waiters  int        // allocators currently blocked in waitForFree
	shutdown bool

	// gate, when non-nil, runs before each reclaim round. Test hook: it
	// lets the shutdown-while-blocked and wakeup tests hold the daemon
	// in a known state. Must be set before the first allocation.
	gate func()
}

func newPagedaemon(s *System, low int) *pagedaemon {
	return &pagedaemon{
		s:    s,
		low:  low,
		high: 2 * low,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
		cond: sync.NewCond(&s.flMu),
	}
}

// kick rings the daemon's doorbell. Non-blocking and lock-free, so it is
// safe from the phys.Mem low-water callback inside page allocation and
// from any goroutine holding VM locks.
func (pd *pagedaemon) kick() {
	select {
	case pd.wake <- struct{}{}:
		pd.s.mach.Stats.Inc(sim.CtrPdWakeups)
	default:
	}
}

func (pd *pagedaemon) stopping() bool {
	pd.s.flMu.Lock()
	defer pd.s.flMu.Unlock()
	return pd.shutdown
}

// finishRound publishes a completed round that freed pages and wakes
// every waiter.
func (pd *pagedaemon) finishRound(freed int) {
	pd.s.flMu.Lock()
	pd.gen++
	pd.genFreed = freed
	pd.cond.Broadcast()
	pd.s.flMu.Unlock()
}

// run is the daemon goroutine: sleep on the doorbell, reclaim toward the
// high watermark, wake any blocked allocators, repeat.
func (pd *pagedaemon) run() {
	defer close(pd.done)
	for {
		<-pd.wake
		if pd.stopping() {
			return
		}
		if gate := pd.gate; gate != nil {
			gate()
			if pd.stopping() {
				return
			}
		}
		free := pd.s.mach.Mem.FreePages()
		if free >= pd.low {
			// Any waiters raced a round that already refilled the free
			// list: report a round without evicting anything more.
			pd.finishRound(free)
			continue
		}
		target := max(pd.high-free, reclaimBatch)
		freed, submitted := pd.s.reclaimScan(target, pd.s.cfg.AsyncPageout)
		pd.s.ctrPdRounds.Inc()
		pd.finishRound(freed)

		// Still under pressure and making progress — pages freed, or
		// clusters on the wire whose completions will free them: run
		// another round without waiting for the next allocation to ring
		// the doorbell. (A round that only submitted overlaps its I/O
		// with the next scan; if the next scan finds everything already
		// in flight it frees and submits nothing, stops re-kicking, and
		// the flights' completions take over the kick.)
		if (freed > 0 || submitted > 0) && pd.s.mach.Mem.FreePages() < pd.low {
			pd.kick()
		}
	}
}

// waitForFree blocks the calling allocator until the daemon completes a
// reclaim round and reports whether it is worth retrying the allocation:
// the round freed pages, or it freed nothing while flights were pending
// and one has now completed — like a kernel thread sleeping on pageout
// I/O. false (a fruitless round with nothing in flight, or shutdown)
// sends the caller to the inline pass.
func (pd *pagedaemon) waitForFree() bool {
	s := pd.s
	s.mach.Stats.Inc(sim.CtrPdBlocked)
	// Wakeup-to-satisfy latency: how long (simulated) this allocator was
	// stalled. The clock advances on other goroutines' work while we
	// sleep, so the delta is the paging work the stall waited out.
	start := s.mach.Clock.Now()
	defer func() {
		s.mach.Stats.Add(sim.CtrPdWaitNs, int64(s.mach.Clock.Since(start)))
	}()
	s.flMu.Lock()
	defer s.flMu.Unlock()
	if pd.shutdown {
		return false
	}
	pd.waiters++
	pd.kick()
	gen := pd.gen
	for pd.gen == gen && !pd.shutdown {
		pd.cond.Wait()
	}
	pd.waiters--
	// A fruitless round with writes pending is not a stall: their
	// completions free pages or leave them clean and droppable.
	return pd.gen != gen && (pd.genFreed > 0 || s.waitFlightLocked())
}

// stop shuts the daemon down: blocked allocators are released
// immediately, then the goroutine is joined. Idempotent.
func (pd *pagedaemon) stop() {
	pd.s.flMu.Lock()
	already := pd.shutdown
	pd.shutdown = true
	pd.cond.Broadcast()
	pd.s.flMu.Unlock()
	if !already {
		// Ring the doorbell so a daemon asleep on it re-checks the flag.
		select {
		case pd.wake <- struct{}{}:
		default:
		}
	}
	<-pd.done
}

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
// free frame goes through. With a daemon running it sleeps in
// waitForFree and retries. Without one (cfg.InlineReclaim, after
// Shutdown), or after a round that made no progress, it runs the one
// inline pass and retries on progress. ErrDeadlock means that pass freed
// nothing while no frame was free and no flight pending.
func (s *System) allocPage(home int, owner any, off param.PageOff, zero bool) (*phys.Page, error) {
	daemon := s.pd != nil
	for attempt := 0; attempt < allocRetryLimit; attempt++ {
		if pg, err := s.mach.Mem.AllocNear(home, owner, off, zero); err == nil {
			return pg, nil
		}
		if daemon {
			// No progress sends the next shortage down the inline pass,
			// after one more attempt at the allocation.
			daemon = s.pd.waitForFree()
			continue
		}
		if s.pd != nil {
			s.ctrPdDirect.Inc()
			daemon = true // the shortage after this pass waits on the daemon again
		}
		if freed, _ := s.reclaimScan(reclaimBatch, false); freed > 0 {
			continue
		}
		// Nothing evictable right now. That is not deadlock if frames were
		// freed elsewhere meanwhile, nor while flights are pending: their
		// completions free pages or leave them clean and droppable, so
		// sleep until one lands and try again.
		if s.mach.Mem.FreePages() == 0 && !s.waitFlight() {
			return nil, vmapi.ErrDeadlock
		}
	}
	return nil, vmapi.ErrDeadlock
}

// ownerSet tracks the anon/object locks the pagedaemon holds for pages
// it has clustered for pageout. Owners are acquired with TryLock only —
// reclaim runs inside allocation paths that may already hold map, amap,
// anon or object locks, and skipping a busy owner is always safe —
// so the pagedaemon can never deadlock against a fault in progress.
type ownerSet map[any]struct{}

func (os ownerSet) holds(owner any) bool { _, ok := os[owner]; return ok }

// tryAcquire locks owner unless it is already held by this set or
// unavailable. It reports whether the caller may proceed under the lock,
// and whether the lock was newly acquired (and must be released if the
// page is not clustered).
func (os ownerSet) tryAcquire(owner any) (proceed, acquired bool) {
	if os.holds(owner) {
		return true, false
	}
	switch o := owner.(type) {
	case *anon:
		if !o.mu.TryLock() {
			return false, false
		}
	case *uobject:
		if !o.mu.TryLock() {
			return false, false
		}
	default:
		return false, false
	}
	return true, true
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
// in-flight asynchronous cluster writes. It is the one body every
// reclaimer shares — a daemon round and an allocator's inline pass
// differ only in their target and async flag — and its operation order
// is byte-deterministic on single-threaded runs.
//
// A scan that frees and submits nothing reaps the frames parked in idle
// per-CPU allocation magazines into the global pool and counts them as
// freed: they were already counted free — the watermark never lied —
// but only the goroutines that parked them could reach them.
//
// Its signature improvement over BSD VM (§6) is aggressive clustering of
// anonymous memory: because anonymous pages have no permanent home on
// backing store, the daemon *reassigns* their swap locations so that all
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
// owner and then pages back in from the freshly assigned slot. Multiple
// reclaimers (the daemon plus allocators' inline passes) may run at once:
// the TryLock/re-verify protocol makes them skip each other's pages.
func (s *System) reclaimScan(target int, async bool) (freed, submitted int) {
	// The ablation (one page, one I/O — Figure 5's BSD curve) and the
	// inline-reclaim configuration keep every write synchronous.
	async = async && s.pd != nil && !s.cfg.DisableClustering
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
			var vnObj *uobject // the owner, when it is a vnode object
			resident := false
			switch o := owner.(type) {
			case *anon:
				resident = o.page == pg
			case *uobject:
				resident = o.pages[pageIdx(pg)] == pg
				if o.aobjSlots == nil {
					vnObj = o
				}
			}
			claimed := false
			if resident && pg.Owner() == owner && !pg.Busy.Load() && !pg.Wired() && !pg.Loaned() && s.mach.Mem.Inactive(pg) {
				s.mach.MMU.PageProtect(pg, param.ProtNone)
				switch {
				case !pg.Dirty.Load():
					// Clean: the backing copy is current; just free.
					s.evictPage(pg, owner)
					freed++
				case vnObj == nil:
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
					if _, ok := vnWb[vnObj]; !ok {
						vnWbOrder = append(vnWbOrder, vnObj)
					}
					vnWb[vnObj] = append(vnWb[vnObj], pg)
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
			idxs := make([]int, len(pages))
			for i, pg := range pages {
				idxs[i] = pageIdx(pg)
			}
			fl.objRuns(o, idxs, pages)
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
