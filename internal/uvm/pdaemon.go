package uvm

import (
	"errors"
	"sort"
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// Sentinel results of waiting on the pagedaemon; both send the allocator
// down the direct-reclaim fallback path.
var (
	errPdStalled  = errors.New("uvm: pagedaemon reclaim round freed nothing")
	errPdShutdown = errors.New("uvm: pagedaemon has shut down")
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
//  4. A round that frees nothing and has no pageout I/O in flight does
//     not re-kick: the waiters are told (errPdStalled) and fall back to
//     reclaiming directly, which tolerates owners locked by the waiting
//     goroutine itself the same way the daemon does (TryLock + skip).
//     A fruitless round while flights are pending (System.flights) is
//     not a stall either: the waiter sleeps until one completes and
//     retries.
//
// Each round is one reclaimScan of the whole inactive queue, in global
// LRU order; the daemon is the only watermark coordinator.
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

	//uvm:lock daemon
	mu       sync.Mutex
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
	pd := &pagedaemon{
		s:    s,
		low:  low,
		high: 2 * low,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	pd.cond = sync.NewCond(&pd.mu)
	return pd
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
	pd.mu.Lock()
	defer pd.mu.Unlock()
	return pd.shutdown
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
			pd.mu.Lock()
			if pd.waiters == 0 {
				// Spurious wakeup: no one waiting and memory is fine.
				pd.mu.Unlock()
				continue
			}
			// Waiters raced a round that already refilled the free list
			// (their Alloc failed before it completed): report the round
			// without evicting anything more.
			pd.gen++
			pd.genFreed = free
			pd.cond.Broadcast()
			pd.mu.Unlock()
			continue
		}
		target := max(pd.high-free, reclaimBatch)
		freed, submitted := pd.s.reclaimScan(target, pd.s.cfg.AsyncPageout)
		if freed == 0 && submitted == 0 {
			// The queues gave nothing and no I/O is on the wire from this
			// round. Before declaring a stall, reap any frames parked in
			// idle per-CPU allocation magazines back into the global pool:
			// they already counted as free, but waiters' retries (and the
			// watermark's notion of reachable memory) need them in the
			// pool, not private to goroutines that stopped allocating.
			freed = pd.s.mach.Mem.ReapCaches()
		}
		pd.s.ctrPdRounds.Inc()

		pd.mu.Lock()
		pd.gen++
		pd.genFreed = freed
		pd.cond.Broadcast()
		pd.mu.Unlock()

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
// reclaim round (or until shutdown). nil means the allocation is worth
// retrying: the round freed pages, or it freed nothing but writes were
// pending and one has now completed — like a kernel thread sleeping on
// pageout I/O. errPdStalled/errPdShutdown mean the caller should reclaim
// directly.
func (pd *pagedaemon) waitForFree() error {
	pd.s.mach.Stats.Inc(sim.CtrPdBlocked)
	// Wakeup-to-satisfy latency: how long (simulated) this allocator was
	// stalled. The clock advances on other goroutines' work while we
	// sleep, so the delta is the paging work the stall waited out.
	start := pd.s.mach.Clock.Now()
	defer func() {
		pd.s.mach.Stats.Add(sim.CtrPdWaitNs, int64(pd.s.mach.Clock.Since(start)))
	}()
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if pd.shutdown {
		return errPdShutdown
	}
	pd.waiters++
	defer func() { pd.waiters-- }()
	pd.kick()
	gen := pd.gen
	for pd.gen == gen && !pd.shutdown {
		pd.cond.Wait()
	}
	switch {
	case pd.gen == gen: // unblocked by shutdown, not by a round
		return errPdShutdown
	case pd.genFreed > 0:
		return nil
	}
	// A fruitless round. With writes pending that is not a stall: their
	// completions free pages or leave them clean and droppable.
	pd.mu.Unlock()
	waited := pd.s.waitFlight()
	pd.mu.Lock()
	if waited {
		return nil
	}
	return errPdStalled
}

// stop shuts the daemon down: blocked allocators are released
// immediately, then the goroutine is joined. Idempotent.
func (pd *pagedaemon) stop() {
	pd.mu.Lock()
	already := pd.shutdown
	pd.shutdown = true
	pd.cond.Broadcast()
	pd.mu.Unlock()
	if !already {
		// Ring the doorbell so a daemon asleep on it re-checks the flag.
		select {
		case pd.wake <- struct{}{}:
		default:
		}
	}
	<-pd.done
}

const (
	// directReclaimLimit bounds consecutive direct-reclaim fallbacks per
	// allocation, preserving the pre-daemon "4 attempts then deadlock"
	// semantics for inline mode.
	directReclaimLimit = 3
	// allocRetryLimit is a livelock backstop: an allocator that keeps
	// losing freshly reclaimed pages to other goroutines eventually
	// reports deadlock rather than spinning forever.
	allocRetryLimit = 1 << 16
)

// noHome is allocPage's home for a frame no one address space owns: an
// object page or a kernel page. phys.Mem.AllocNear then rotates across the
// shards as Alloc does.
const noHome = -1

// allocPage allocates a page frame near shard home (see
// phys.Mem.AllocNear). On shortage the allocating goroutine
// does not reclaim inline (unless cfg.InlineReclaim): it wakes the
// pagedaemon, blocks until a reclaim round completes, and retries.
// Direct reclaim remains as a fallback for when the daemon cannot make
// progress — for example when this goroutine itself holds the lock of
// the only owner with evictable pages — and after Shutdown.
func (s *System) allocPage(home int, owner any, off param.PageOff, zero bool) (*phys.Page, error) {
	direct := 0
	for attempt := 0; attempt < allocRetryLimit; attempt++ {
		pg, err := s.mach.Mem.AllocNear(home, owner, off, zero)
		if err == nil {
			return pg, nil
		}
		if s.pd != nil {
			if werr := s.pd.waitForFree(); werr == nil {
				continue // the daemon freed pages; retry the allocation
			}
			// The daemon stalled or is shutting down. Memory may still
			// have been freed since our failed attempt (by the round we
			// raced, or by frees elsewhere): retry before escalating.
			if pg, err := s.mach.Mem.AllocNear(home, owner, off, zero); err == nil {
				return pg, nil
			}
		}
		// Inline mode, a stalled daemon, or shutdown: reclaim directly.
		if direct >= directReclaimLimit {
			return nil, vmapi.ErrDeadlock
		}
		if s.pd != nil {
			s.ctrPdDirect.Inc()
		}
		if s.reclaimCount(reclaimBatch) > 0 {
			direct++
			continue
		}
		// Nothing evictable right now. That is not deadlock if frames were
		// freed elsewhere meanwhile, nor while flights are pending: their
		// completions free pages or leave them clean and droppable, so
		// sleep until one lands. Either way try again, and do not count
		// the pass against the limit.
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

// reclaimCount is UVM's pagedaemon scan, run synchronously on behalf of
// an allocating goroutine (the direct-reclaim fallback): that goroutine
// needs a page now, so its pageout never goes async. It returns the pages
// freed; see reclaimScan for the scan.
func (s *System) reclaimCount(target int) int {
	freed, _ := s.reclaimScan(target, false)
	if freed == 0 {
		// A fruitless scan is not a stall while free frames sit parked in
		// per-CPU allocation magazines: reap them into the global pool so
		// the caller's retry can reach them from any goroutine. (The
		// frames were already counted free — the watermark never lied —
		// they were just private to idle magazines.)
		freed = s.mach.Mem.ReapCaches()
	}
	return freed
}

// reclaimScan runs the second-chance reclaim scan over the inactive
// queue in global LRU order: up to four passes of scan, classify and
// submit until target pages are freed (or in flight, when async). It
// returns the pages freed synchronously and the pages submitted as
// in-flight asynchronous cluster writes. It is the one body every
// reclaimer shares — a daemon round and the direct-reclaim fallback
// differ only in their target and async flag — and its operation order
// is byte-deterministic on single-threaded runs.
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
// reclaimers (the daemon plus direct-reclaim fallbacks) may run at once:
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
			// to this owner and still be evictable.
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
			if resident && pg.Owner() == owner && !pg.Busy.Load() && !pg.Wired() && !pg.Loaned() {
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
	return freed, submitted
}
