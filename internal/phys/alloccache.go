package phys

// Per-CPU free-page caches ("magazines"): the allocator fast path that
// removes the global free pool from the fault path entirely.
//
// With caches enabled, each allocating goroutine hashes to one of a
// small fixed set of magazines — private stacks of free frames guarded
// by their own mutexes — and allocation/free traffic stays on that
// magazine. An empty magazine refills with a batch of frames taken from
// the global pool in one acquisition; an over-full one drains a batch
// back. Because independent goroutines hash to different magazines, the
// common case takes one uncontended lock, and the global queue shards
// see only 1/batch of the allocation traffic.
//
// The lock-free free counter counts every free frame wherever it sits
// (pool or magazine). When the pool runs dry the allocator raids sibling
// magazines (TryLock only, so magazine-to-magazine acquisition can never
// form a blocking cycle), and reclaim reaps every magazine back into the
// pool when a pass finds nothing else to free — so frames parked in an
// idle goroutine's magazine are never out of reach.
//
// Lock order within phys: a magazine lock nests above the queue-shard
// locks (refill, drain and reap take shard locks while holding the
// magazine), and sibling magazines are only ever TryLocked. Shard locks
// remain leaves.
//
// Magazine selection is an affinity hint, not a correctness input: the
// goroutine hash spreads concurrent allocators across magazines the way
// per-CPU caches spread across processors, but any goroutine may use any
// magazine at any time (see cpuSlot). Single-threaded runs that need
// byte-determinism run with caches disabled (AllocCaches=0), which keeps
// the exact single-pool allocation order.

import (
	"sync"
	"unsafe"

	"uvm/internal/param"
)

// defaultAllocBatch is the refill/drain transfer size when
// SetAllocCaches is given batch <= 0: large enough to amortise the
// global-pool acquisition over many fast-path allocations, small enough
// that an idle magazine strands at most 2×batch frames.
const defaultAllocBatch = 16

// allocCache is one magazine: a private LIFO of free frames. LIFO keeps
// the hot end cache-warm, exactly like a CPU-local page cache.
type allocCache struct {
	//uvm:lock magazine
	mu    sync.Mutex
	pages []*Page
}

// SetAllocCaches configures the per-CPU free-page caches: n magazines
// with refill/drain batches of batch pages (batch <= 0 selects the
// default). n <= 0 disables the caches, restoring the exact single-pool
// allocation layout — the byte-deterministic configuration the paper
// experiments run with. Must be called at boot, before any allocation
// runs concurrently; magazines start empty and fill lazily on first use.
func (m *Mem) SetAllocCaches(n, batch int) {
	if n <= 0 {
		m.caches = nil
		return
	}
	if batch <= 0 {
		batch = defaultAllocBatch
	}
	m.caches = make([]*allocCache, n)
	for i := range m.caches {
		m.caches[i] = &allocCache{pages: make([]*Page, 0, 2*batch)}
	}
	m.allocBatch = batch
}

// allocCaches returns the number of configured magazines (0 when the
// per-CPU caches are disabled and allocation runs on the global pool).
func (m *Mem) allocCaches() int { return len(m.caches) }

// CachedFreePages counts the free frames currently parked in magazines.
// Together with the global pool's free lists it partitions FreePages
// when the system is quiescent; the property tests assert exactly that.
func (m *Mem) CachedFreePages() int {
	n := 0
	for _, c := range m.caches {
		c.mu.Lock()
		n += len(c.pages)
		c.mu.Unlock()
	}
	return n
}

// SetAllocGate installs a test hook that runs inside AllocCPU between a
// magazine refill and the use of the refilled frames, with no phys locks
// held. The allocator-vs-reap race tests use it to reap (or raid) the
// magazine in that window; the allocation must absorb the interference
// and retry. Pass nil to remove. Must not be set while allocations run.
func (m *Mem) SetAllocGate(fn func()) { m.allocGate = fn }

// cpuSlot returns a goroutine-affine index in [0, n): the address of a
// stack local, mixed through SplitMix64's finaliser. Distinct goroutines
// live on distinct stacks, so concurrent allocators spread across
// magazines; a goroutine whose stack moves simply migrates to another
// magazine, which affects locality, never correctness.
func cpuSlot(n int) int {
	var marker byte
	h := uint64(uintptr(unsafe.Pointer(&marker)))
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}

// lockCache acquires a magazine, counting the acquisition — and whether
// it had to wait — in the phys.alloc.* stats.
func (m *Mem) lockCache(c *allocCache) {
	if !c.mu.TryLock() {
		m.stats.AllocContended.Inc()
		c.mu.Lock()
	}
	m.stats.AllocAcquires.Inc()
}

// lockShardAlloc acquires a queue shard on the allocation path with the
// same counting. (The free path's detach acquisition is queue
// bookkeeping, not allocator traffic, and is deliberately not counted.)
func (m *Mem) lockShardAlloc(sh *memShard) {
	if !sh.mu.TryLock() {
		m.stats.AllocContended.Inc()
		sh.mu.Lock()
	}
	m.stats.AllocAcquires.Inc()
}

// AllocCPU is Alloc pinned to the magazine of a specific CPU slot (the
// slot is taken mod the configured cache count). Alloc routes here with
// a goroutine-affine slot; tests drive k simulated CPUs explicitly. With
// caches disabled it is exactly Alloc.
func (m *Mem) AllocCPU(cpu int, owner any, off param.PageOff, zero bool) (*Page, error) {
	if len(m.caches) == 0 {
		return m.Alloc(owner, off, zero)
	}
	c := m.caches[uint(cpu)%uint(len(m.caches))]
	var p *Page
	for {
		m.lockCache(c)
		if n := len(c.pages); n > 0 {
			p = c.pages[n-1]
			c.pages = c.pages[:n-1]
			m.stats.AllocHits.Inc()
			c.mu.Unlock()
			break
		}
		refilled := m.refillLocked(c)
		if refilled == 0 {
			// Pool dry: raid sibling magazines before giving up, so frames
			// parked with idle goroutines do not fake an out-of-memory.
			refilled = m.stealLocked(c)
		}
		c.mu.Unlock()
		if refilled == 0 {
			return nil, ErrNoMemory
		}
		// Between the refill and the retry the magazine is unlocked: a
		// reap (or a sibling's raid) may take the frames back. The retry
		// loop absorbs that; the gate lets tests force the interleaving.
		if gate := m.allocGate; gate != nil {
			gate()
		}
	}
	m.finishAlloc(p, owner, off, zero)
	return p, nil
}

// refillLocked moves up to one batch of frames from the global pool into
// c, which the caller holds locked. It rotates the starting shard like
// Alloc so concurrent refills do not convoy on shard 0. Returns the
// number of frames obtained.
func (m *Mem) refillLocked(c *allocCache) int {
	want := m.allocBatch
	start := int(m.allocCursor.Add(1) - 1)
	got := 0
	for i := 0; i < NumShards && got < want; i++ {
		sh := &m.shards[(start+i)%NumShards]
		m.lockShardAlloc(sh)
		for got < want {
			p := sh.free.popHead()
			if p == nil {
				break
			}
			p.queue = QueueNone
			c.pages = append(c.pages, p)
			got++
		}
		sh.mu.Unlock()
	}
	if got > 0 {
		m.stats.AllocRefills.Inc()
	}
	return got
}

// stealLocked raids sibling magazines for up to one batch of frames.
// The caller holds c's lock; siblings are TryLocked only, so two
// goroutines raiding each other cannot deadlock — a busy sibling is
// skipped, and a fruitless raid surfaces as ErrNoMemory, which sends
// the caller to reclaim (whose reap will flush every magazine).
func (m *Mem) stealLocked(c *allocCache) int {
	want := m.allocBatch
	got := 0
	for _, sib := range m.caches {
		if sib == c || got >= want {
			continue
		}
		if !sib.mu.TryLock() {
			continue
		}
		for n := len(sib.pages); n > 0 && got < want; n = len(sib.pages) {
			c.pages = append(c.pages, sib.pages[n-1])
			sib.pages = sib.pages[:n-1]
			got++
		}
		sib.mu.Unlock()
	}
	if got > 0 {
		m.stats.AllocSteals.Inc()
	}
	return got
}

// FreeCPU is Free pinned to the magazine of a specific CPU slot: the
// frame is parked in that magazine after a batch is drained back to the
// pool if it is over-full. Free routes here with a goroutine-affine
// slot; tests drive k simulated CPUs explicitly. With caches disabled
// it is exactly Free.
func (m *Mem) FreeCPU(cpu int, p *Page) {
	if len(m.caches) == 0 {
		m.Free(p)
		return
	}
	m.freePrep(p)
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	sh.mu.Unlock()
	c := m.caches[uint(cpu)%uint(len(m.caches))]
	c.mu.Lock()
	if len(c.pages) >= 2*m.allocBatch {
		m.drainLocked(c, m.allocBatch)
	}
	c.pages = append(c.pages, p)
	c.mu.Unlock()
	m.freeCnt.Add(1)
}

// drainLocked returns n frames from c (held locked by the caller) to
// the heads of their home shards' free lists — the end a refill pops, as
// with Free — grouped so each shard is locked at most once per drain.
func (m *Mem) drainLocked(c *allocCache, n int) {
	if n > len(c.pages) {
		n = len(c.pages)
	}
	if n == 0 {
		return
	}
	// Drain the cold (oldest) end, keeping the hot end in the magazine.
	victims := make([]*Page, n)
	copy(victims, c.pages[:n])
	c.pages = append(c.pages[:0], c.pages[n:]...)
	m.stats.AllocDrains.Inc()
	for sh := 0; sh < NumShards; sh++ {
		locked := false
		for _, p := range victims {
			if int(p.home) != sh {
				continue
			}
			if !locked {
				m.shards[sh].mu.Lock()
				locked = true
			}
			p.queue = QueueFree
			m.shards[sh].free.pushHead(p)
		}
		if locked {
			m.shards[sh].mu.Unlock()
		}
	}
}

// ReapCaches flushes every magazine back into the global free lists and
// returns the number of frames moved. Reclaim calls it when a pass
// frees nothing else: the reaped frames were already counted free (the
// free count never lied), but after the reap they are
// reachable from the global pool instead of parked with idle goroutines.
// Safe to call at any time from any goroutine; magazines are locked one
// at a time.
func (m *Mem) ReapCaches() int {
	moved := 0
	for _, c := range m.caches {
		c.mu.Lock()
		n := len(c.pages)
		m.drainLocked(c, n)
		moved += n
		c.mu.Unlock()
	}
	if moved > 0 {
		m.stats.AllocReaps.Inc()
	}
	return moved
}

// finishAlloc applies the common post-allocation protocol to a frame
// just taken off a free structure: charge the cost, maintain the
// lock-free free counter, stamp the owner, and reset the state bits.
// Shared by Alloc and AllocCPU so the free count is kept identically on
// both paths.
func (m *Mem) finishAlloc(p *Page, owner any, off param.PageOff, zero bool) {
	m.freeCnt.Add(-1)
	m.clock.Advance(m.costs.PageAlloc)
	p.SetOwner(owner, off)
	p.refs.Store(ownerRef)
	p.Dirty.Store(false)
	p.Referenced.Store(false)
	p.Busy.Store(false)
	p.WireCount.Store(0)
	if zero {
		m.Zero(p)
	}
}
