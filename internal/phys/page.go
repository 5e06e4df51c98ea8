// Package phys models physical memory: the vm_page array, the free list,
// and the active/inactive page queues that UVM's single-flight reclaim
// pass and BSD VM's pagedaemon scan.
//
// Unlike a pure counter model, every frame holds real bytes: copy-on-write,
// page loanout, swap round-trips and file I/O are all verified against
// them by the test suites of the higher layers. Page data moves by
// reference and is copied only when someone stores (the sharing rule):
// a frame's bytes live either in its own writable 4 KB buffer or in an
// immutable shared buffer — the one zero page, or a disk block. A frame
// starts on the zero page. Zero points it back there, CopyData at its
// source's shared buffer, a pagein at the block it read (Share). A write
// to backing store hands the disk the frame's buffer (Freeze): a shared
// one as it is, and the frame's own one too, which then becomes the
// block — immutable, shared by the frame until its next store. Data is
// the read view. Every in-place writer calls Writable first, the one
// place a shared buffer's bytes are copied into the frame's own buffer,
// which is allocated then if the frame has none. No buffer is
// reference-counted: a shared buffer is never written, so it can be held
// by any number of frames and disk blocks at once, and the garbage
// collector frees one that none holds.
//
// Concurrency: the queues are sharded — each frame belongs for life to
// one shard (by frame number) holding its free/active/inactive list
// membership under a per-shard mutex, so page allocation and LRU queue
// traffic from independent faulting goroutines does not serialise on one
// lock. A global monotonic sequence number is stamped on every queue
// insertion, and the reclaim entry points (ScanInactive,
// RefillInactive) merge the shards in sequence order — the observable LRU
// order is therefore identical to a single global queue, which keeps
// single-threaded simulations deterministic and bit-for-bit comparable
// across runs.
//
// Each shard's free list is LIFO: Free pushes the head that allocation
// pops. Within one shard, the frame a munmap or exit just released is the
// next one that shard hands out, and the first store into its own buffer
// lands in lines still in the cache. Which free frame is reused is not a
// replacement decision — LRU order lives in the active/inactive queues and
// is unaffected.
//
// Anonymous memory allocates near a home shard: AllocNear starts at the
// shard it is given and falls through to the next ones only when that
// shard's free list is empty. The VM layer gives every address space a
// home and allocates its anonymous frames there; since Free returns a
// frame to the shard it belongs to, a process keeps reusing its own
// frames, and their shard lock (and the pmap layer's pv buckets, which
// hash the same frame numbers) stay on the core that faults them. Callers
// with no address space — object pages, which many address spaces share,
// and kernel pages — use Alloc, which rotates a cursor across the shards
// so concurrent allocators rarely meet on one lock.
//
// Allocation has two layouts. With the per-CPU free-page caches off
// (the default, and the byte-deterministic configuration the paper
// experiments run with) AllocNear, Alloc and Free work directly on the
// sharded free lists — the single global pool. With SetAllocCaches,
// allocating goroutines are spread across private magazines of free
// frames that refill from and drain to that pool in batches (see
// alloccache.go), so the pool stops being a machine-wide serialisation
// point; the pool is still where every frame ultimately lives and the
// only layer reclaim has to understand.
//
// Either way, the free-page count is a lock-free atomic maintained by
// the allocation paths; it counts every free frame — pooled or parked
// in a magazine — so reading it never touches the shard locks and never
// misses cached frames. Memory carries no watermark and calls nothing
// back: an allocator that finds no free frame gets ErrNoMemory and
// reclaims, itself, through its VM system.
//
// A frame's state bits and identity (Owner, Off) are atomics, written
// under the owning VM structure's lock or while no one else can reach the
// frame, and read lock-free: a reader that acts on the owner it read
// locks that owner and checks again that it still holds the frame. A
// loaned frame lives until its owner (Disown) and its last borrower
// (Unloan) have let go, counted in one atomic word: whichever drops the
// last reference frees the frame.
package phys

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"uvm/internal/param"
	"uvm/internal/sim"
)

// ErrNoMemory is returned by Alloc when the free list is empty. Callers
// (the fault handlers) react by reclaiming and retrying.
var ErrNoMemory = errors.New("phys: out of physical memory")

// QueueKind identifies which paging queue a page is on.
type QueueKind uint8

const (
	QueueNone QueueKind = iota
	QueueFree
	QueueActive
	QueueInactive
)

// NumShards is the page-queue shard count, and so the number of distinct
// homes AllocNear can be given. A small power of two: enough to spread
// queue traffic from concurrently faulting goroutines, few enough that
// merge scans stay cheap.
const NumShards = 16

// Page is one physical page frame (a vm_page structure).
type Page struct {
	PA param.PAddr

	// The frame's bytes, param.PageSize of them: data is own, or an
	// immutable shared buffer (see the package comment); own is nil until
	// the frame's first store and after a write has made it a block.
	// Written only by the goroutine that may store into the frame — its
	// owner's lock holder, or the I/O path holding it Busy.
	data []byte
	own  []byte

	// Identity: the structure that owns this frame — a memory object or
	// an anon of the VM system that allocated it — and the frame's offset
	// within it; off is stored first. refs is the lifetime word: ownerRef
	// until the owner (or an owner-less frame's allocator) lets go, plus
	// loanRef per loan.
	owner atomic.Pointer[Ident]
	off   atomic.Uint64
	refs  atomic.Int32

	// State bits maintained by the VM systems and the pmap layer.
	// Atomics: written under the owning structure's lock, read lock-free
	// by queue scans and assertions.
	Dirty      atomic.Bool
	Referenced atomic.Bool
	Busy       atomic.Bool // page is being paged in/out
	WireCount  atomic.Int32

	home       uint8  // queue shard this frame always lives in
	seq        uint64 // global LRU stamp of the last queue insertion
	queue      QueueKind
	prev, next *Page

	// PV is the frame's reverse map: every translation that maps it. It
	// belongs to internal/pmap, which reads and writes it only under the
	// frame's pv bucket lock; phys never touches it.
	PV PVList
}

// PVEntry is one reverse-map (pv) entry: a translation of a frame, named
// by its address space and virtual address. Pmap holds a *pmap.Pmap (phys
// sits below pmap and cannot name the type); nil marks an empty entry.
type PVEntry struct {
	Pmap any
	VA   param.VAddr
}

// PVList is the pv list of one frame, kept in the frame itself so that
// mapping a page costs no table lookup and — for the common singly-mapped
// page — no allocation: the first mapping sits inline, further ones in
// More. More is empty whenever First is.
type PVList struct {
	First PVEntry
	More  []PVEntry
}

// zeroPage is the one zero page every zero-filled frame shares until its
// first store. It is never written.
var zeroPage = make([]byte, param.PageSize)

// Data returns the frame's bytes for reading. They may be a shared
// buffer: never write through the result — call Writable.
func (p *Page) Data() []byte { return p.data }

// Writable returns the frame's own buffer, holding the frame's bytes,
// for an in-place store. A frame that shares a buffer first copies its
// bytes into its own, allocating one if it has none: the only copy the
// sharing rule makes.
func (p *Page) Writable() []byte {
	if !p.ownsData() {
		p.own = append(p.own[:0], p.data...)
		p.data = p.own
	}
	return p.own
}

// Freeze returns an immutable buffer holding the frame's bytes, for a
// write to hand to the disk. A shared buffer is returned as it is; the
// frame's own buffer is given away, becoming immutable, and the frame
// shares it until its next store. Nothing is copied.
func (p *Page) Freeze() []byte {
	if p.ownsData() {
		p.own = nil
	}
	return p.data
}

// Share points the frame at an immutable buffer, such as a block a
// pagein read; nil, a block never written, is the zero page.
func (p *Page) Share(b []byte) {
	if b == nil {
		b = zeroPage
	}
	p.data = b
}

func (p *Page) ownsData() bool { return p.own != nil && &p.data[0] == &p.own[0] }

// Ident is what a frame points at to name its owner. Each structure that
// owns frames embeds one and names itself with Name when it is made, so
// re-homing a frame is one atomic store and allocates nothing; any other
// owner is boxed in a fresh Ident.
type Ident struct{ owner any }

// Name makes id name owner, the structure that embeds it.
func (id *Ident) Name(owner any) { id.owner = owner }

func (id *Ident) ident() *Ident { return id }

func identFor(owner any) *Ident {
	switch o := owner.(type) {
	case nil:
		return nil
	case interface{ ident() *Ident }:
		return o.ident()
	}
	return &Ident{owner}
}

// Owner returns the structure that currently owns this frame (nil for a
// free, owner-less or orphaned frame).
func (p *Page) Owner() any {
	if id := p.owner.Load(); id != nil {
		return id.owner
	}
	return nil
}

// Off returns the page-aligned offset of this frame within its owner.
func (p *Page) Off() param.PageOff { return param.PageOff(p.off.Load()) }

// SetOwner re-homes the frame to a new owner. Caller holds the new
// owner's lock, or the frame is one no one else can reach.
func (p *Page) SetOwner(owner any, off param.PageOff) {
	p.off.Store(uint64(off))
	p.owner.Store(identFor(owner))
}

const ownerRef, loanRef = 1, 2 // the references refs counts

// Loan takes a loan on the frame, keeping it alive for the borrower
// after its owner lets go. Caller holds the owner's lock.
func (p *Page) Loan() { p.refs.Add(loanRef) }

// Unloan returns a loan and reports whether that was the frame's last
// reference, in which case the caller frees the frame.
func (p *Page) Unloan() bool {
	n := p.refs.Add(-loanRef)
	if n < 0 {
		panic("phys: loan count underflow " + p.String())
	}
	return n == 0
}

// Disown orphans the frame, dropping its owner's reference, and reports
// whether that was the last one, in which case the caller frees the
// frame. A frame that may be loaned must be off the paging queues first
// (Mem.Dequeue): the last borrower may free it as soon as Disown returns.
func (p *Page) Disown() bool {
	p.owner.Store(nil)
	return p.refs.Add(-ownerRef) == 0
}

// Wired reports whether the page is wired (must stay resident).
func (p *Page) Wired() bool { return p.WireCount.Load() > 0 }

// Loaned reports whether the page is currently loaned out.
func (p *Page) Loaned() bool { return p.refs.Load() >= loanRef }

// Queue returns the queue the page is currently on.
func (p *Page) Queue() QueueKind { return p.queue }

// Shard returns the queue shard the frame belongs to, in [0, NumShards).
func (p *Page) Shard() int { return int(p.home) }

// String renders the page's identity and state for debug output.
func (p *Page) String() string {
	return fmt.Sprintf("page(pa=%#x owner=%T off=%#x q=%d wire=%d loan=%d dirty=%v)",
		p.PA, p.Owner(), p.Off(), p.queue, p.WireCount.Load(), p.refs.Load()/loanRef, p.Dirty.Load())
}

// pageList is an intrusive doubly-linked list of pages.
type pageList struct {
	head, tail *Page
	n          int
}

func (l *pageList) pushTail(p *Page) {
	p.prev, p.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = p
	} else {
		l.head = p
	}
	l.tail = p
	l.n++
}

func (l *pageList) pushHead(p *Page) {
	p.prev, p.next = nil, l.head
	if l.head != nil {
		l.head.prev = p
	} else {
		l.tail = p
	}
	l.head = p
	l.n++
}

func (l *pageList) remove(p *Page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		l.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		l.tail = p.prev
	}
	p.prev, p.next = nil, nil
	l.n--
}

func (l *pageList) popHead() *Page {
	p := l.head
	if p != nil {
		l.remove(p)
	}
	return p
}

// memShard is one slice of the page queues: every frame belongs to
// exactly one shard, and all of that frame's queue membership is
// guarded by the shard's mutex. A shard is three whole cache lines, a
// line of padding after its lock and lists, so two shards locked by two
// cores never share a line.
type memShard struct {
	//uvm:lock pageq
	mu       sync.Mutex
	free     pageList
	active   pageList
	inactive pageList
	_        sim.CacheLinePad
	_        [48]byte // rounds the shard up to 192 bytes
}

// Mem is the physical memory of the simulated machine. The fields every
// allocation only reads come first; the counters it writes follow, each
// on a line of its own, and then the shards.
type Mem struct {
	clock *sim.Clock
	costs *sim.Costs
	stats *sim.Stats

	total  int
	frames []Page

	// Per-CPU free-page caches (alloccache.go). Empty caches = disabled:
	// allocation runs on the global pool exactly as before the magazines
	// existed. allocGate is the refill-to-use test hook.
	caches     []*allocCache
	allocBatch int
	allocGate  func()

	_           sim.CacheLinePad
	seqCtr      atomic.Uint64 // global LRU stamp source
	_           sim.CacheLinePad
	allocCursor atomic.Uint64 // round-robin start shard of Alloc
	_           sim.CacheLinePad
	freeCnt     atomic.Int64 // lock-free count of free frames, pooled or cached
	_           sim.CacheLinePad
	shards      [NumShards]memShard
}

// NewMem boots a machine with npages page frames, each on the zero page.
func NewMem(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, npages int) *Mem {
	if npages <= 0 {
		panic("phys: non-positive memory size")
	}
	m := &Mem{clock: clock, costs: costs, stats: stats, total: npages}
	m.frames = make([]Page, npages)
	for i := range m.frames {
		p := &m.frames[i]
		p.PA = param.PAddr(i) << param.PageShift
		p.data = zeroPage
		p.home = uint8(i % NumShards)
		p.queue = QueueFree
		m.shards[p.home].free.pushTail(p)
	}
	m.freeCnt.Store(int64(npages))
	return m
}

func (m *Mem) shardOf(p *Page) *memShard { return &m.shards[p.home] }

// TotalPages returns the amount of physical memory in pages.
func (m *Mem) TotalPages() int { return m.total }

// FreePages returns the current number of free frames, wherever they
// sit — the global pool plus every per-CPU magazine. It reads the
// lock-free counter, so polling it never contends with allocators.
func (m *Mem) FreePages() int { return int(m.freeCnt.Load()) }

// ActivePages and InactivePages return the queue depths.
func (m *Mem) ActivePages() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.active.n
		sh.mu.Unlock()
	}
	return n
}

// InactivePages counts the pages currently on the inactive queues.
func (m *Mem) InactivePages() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.inactive.n
		sh.mu.Unlock()
	}
	return n
}

// BusyPages sweeps every frame and returns the ones with Busy set. With
// the system quiescent (no faults running, pipelines drained, Shutdown
// complete) the answer must be empty: a Busy page at that point is a
// leaked claim from an error path that forgot to release it. The
// fault-injection suite and bench/uvmperf assert exactly that at end of
// run.
func (m *Mem) BusyPages() []*Page {
	var busy []*Page
	for i := range m.frames {
		if m.frames[i].Busy.Load() {
			busy = append(busy, &m.frames[i])
		}
	}
	return busy
}

// Frame returns the frame with physical frame number pfn.
func (m *Mem) Frame(pfn int) *Page { return &m.frames[pfn] }

// ForEachFrame visits every physical frame in PA order until fn returns
// false. It takes no locks — the visitor sees each frame's atomics
// (owner, state bits) at whatever instant it reaches them, like
// BusyPages — so it suits lazy sweeps that re-verify under the owner
// lock before acting.
func (m *Mem) ForEachFrame(fn func(*Page) bool) {
	for i := range m.frames {
		if !fn(&m.frames[i]) {
			return
		}
	}
}

// Alloc takes a free frame for a caller with no address space: an object
// page, which many address spaces may map, or a kernel page. It is
// AllocNear with no home, so allocation rotates across the queue shards
// and concurrent allocators rarely meet on one lock.
func (m *Mem) Alloc(owner any, off param.PageOff, zero bool) (*Page, error) {
	return m.AllocNear(-1, owner, off, zero)
}

// AllocNear takes a free frame, starting at shard home (taken mod
// NumShards) and falling through to the next shards in order when its
// free list is empty. A negative home starts where Alloc's rotating cursor
// points. If zero is set the frame is zero-filled (and the zeroing cost
// charged); otherwise its previous contents are undefined, exactly like a
// real free-list page.
//
// With the per-CPU caches enabled the home is ignored: the frame comes
// from the calling goroutine's magazine (AllocCPU with a goroutine-affine
// slot) and the shards are only touched on a refill.
func (m *Mem) AllocNear(home int, owner any, off param.PageOff, zero bool) (*Page, error) {
	if len(m.caches) > 0 {
		return m.AllocCPU(cpuSlot(len(m.caches)), owner, off, zero)
	}
	start := home
	if home < 0 {
		start = int(m.allocCursor.Add(1) - 1)
	}
	var p *Page
	for i := 0; i < NumShards; i++ {
		sh := &m.shards[(start+i)%NumShards]
		m.lockShardAlloc(sh)
		p = sh.free.popHead()
		if p != nil {
			p.queue = QueueNone
			sh.mu.Unlock()
			break
		}
		sh.mu.Unlock()
	}
	if p == nil {
		return nil, ErrNoMemory
	}
	m.finishAlloc(p, owner, off, zero)
	return p, nil
}

// Free returns a frame to the free set: the free list of the shard it
// belongs to, or — with the per-CPU caches on — the freeing goroutine's
// magazine, which drains to the pool in batches. The caller must have
// removed all mappings. Free is where a frame leaves whatever paging queue
// it is on — callers do not Dequeue first — and it goes to the head of its
// shard's free list, the end allocation pops: the frame just released is
// the next one that shard hands out, while its lines are still in the
// cache. An address space allocating near that shard as its home gets it
// back; an Alloc rotating across the shards may be served by another one.
func (m *Mem) Free(p *Page) {
	if n := len(m.caches); n > 0 {
		m.FreeCPU(cpuSlot(n), p)
		return
	}
	m.freePrep(p)
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	p.queue = QueueFree
	sh.free.pushHead(p)
	sh.mu.Unlock()
	m.freeCnt.Add(1)
}

// freePrep is the part of freeing shared by every layout: the
// wired/loaned panics, the cost, and clearing identity and dirt.
func (m *Mem) freePrep(p *Page) {
	if p.WireCount.Load() > 0 {
		panic("phys: freeing wired page " + p.String())
	}
	if p.Loaned() {
		panic("phys: freeing loaned page " + p.String())
	}
	m.clock.Advance(m.costs.PageFree)
	p.owner.Store(nil)
	p.Dirty.Store(false)
	// A free frame's contents are undefined: drop any shared buffer.
	p.data = zeroPage
	if p.own != nil {
		p.data = p.own
	}
}

// Zero clears a frame's data, charging the zeroing cost. The frame
// shares the zero page until its first store.
func (m *Mem) Zero(p *Page) {
	m.clock.Advance(m.costs.PageZero)
	m.stats.PagesZeroed.Inc()
	p.data = zeroPage
}

// CopyData gives dst src's data, charging the 4 KB copy cost. dst shares
// src's buffer when that is a shared one; src's own buffer, which src
// may still store into, is copied into dst's own.
func (m *Mem) CopyData(dst, src *Page) {
	m.clock.Advance(m.costs.PageCopy)
	m.stats.PagesCopied.Inc()
	dst.data = src.data
	if src.ownsData() {
		dst.Writable()
	}
}

// Activate puts the page on the active queue (most recently used end).
func (m *Mem) Activate(p *Page) {
	seq := m.seqCtr.Add(1)
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	p.queue = QueueActive
	p.seq = seq
	sh.active.pushTail(p)
	sh.mu.Unlock()
}

// ActivateIfInactive gives a page a second chance — but only if it is
// still on the inactive queue. The single-flight reclaim pass works from
// a lock-free snapshot; by the time it decides a page deserves
// reactivation the frame may have been freed (or reallocated and even
// wired) by its owner, and blindly activating it would pull a free frame
// off the free list forever. Reports whether the page was moved.
func (m *Mem) ActivateIfInactive(p *Page) bool {
	seq := m.seqCtr.Add(1)
	sh := m.shardOf(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p.queue != QueueInactive {
		return false
	}
	sh.inactive.remove(p)
	p.queue = QueueActive
	p.seq = seq
	sh.active.pushTail(p)
	return true
}

// Inactive reports whether the page is on the inactive queue.
func (m *Mem) Inactive(p *Page) bool {
	sh := m.shardOf(p)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return p.queue == QueueInactive
}

// Deactivate moves the page to the inactive queue, making it a pageout
// candidate.
func (m *Mem) Deactivate(p *Page) {
	seq := m.seqCtr.Add(1)
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	p.queue = QueueInactive
	p.seq = seq
	sh.inactive.pushTail(p)
	sh.mu.Unlock()
}

// Dequeue removes the page from whatever paging queue it is on (used when
// wiring a page or starting pageout on it).
func (m *Mem) Dequeue(p *Page) {
	sh := m.shardOf(p)
	sh.mu.Lock()
	sh.detachLocked(p)
	sh.mu.Unlock()
}

func (sh *memShard) detachLocked(p *Page) {
	switch p.queue {
	case QueueFree:
		sh.free.remove(p)
	case QueueActive:
		sh.active.remove(p)
	case QueueInactive:
		sh.inactive.remove(p)
	}
	p.queue = QueueNone
}

// scanStack is how many snapshot candidates ScanInactive keeps on its own
// stack; a larger snapshot spills to the heap.
const scanStack = 512

// ScanInactive calls fn on up to max pages in global LRU order from the
// inactive queue. fn runs without any queue lock held so it may call back
// into Mem; the scan snapshots candidates first, skipping busy, wired and
// loaned pages. This is the entry point of UVM's single-flight reclaim
// pass and of BSD VM's pagedaemon. The shards are merged by sequence
// stamp, so the visit order matches what a single global inactive queue
// would produce.
//
// Each shard's candidates are snapshotted under its lock into one segment
// of a shared buffer. A segment is in queue order, which is stamp order
// except where two goroutines stamped and then queued in opposite order,
// so it is put right in place — nearly free on an already ordered
// segment. The visit is then a lazy merge of the segments' heads: it
// costs one pass over the shard heads per page handed to fn and stops
// when fn does, so a scan that wanted only the first few pages never
// orders the rest.
func (m *Mem) ScanInactive(max int, fn func(*Page) bool) {
	// The LRU stamp is copied out while the shard lock is held: p.seq is
	// re-stamped (under other shard locks) whenever a page moves queues,
	// so the merge below must not touch the live field.
	type candidate struct {
		p   *Page
		seq uint64
	}
	var (
		buf  [scanStack]candidate
		head [NumShards]int // next unvisited candidate of each segment
		end  [NumShards]int // one past each segment's last candidate
	)
	cand := buf[:0]
	for i := range m.shards {
		first := len(cand)
		sh := &m.shards[i]
		sh.mu.Lock()
		for p := sh.inactive.head; p != nil && len(cand)-first < max; p = p.next {
			if p.Busy.Load() || p.Wired() || p.Loaned() {
				continue
			}
			cand = append(cand, candidate{p, p.seq})
		}
		sh.mu.Unlock()
		seg := cand[first:]
		for j := 1; j < len(seg); j++ {
			for k := j; k > 0 && seg[k-1].seq > seg[k].seq; k-- {
				seg[k-1], seg[k] = seg[k], seg[k-1]
			}
		}
		head[i], end[i] = first, len(cand)
	}
	for ; max > 0; max-- {
		oldest := -1
		for i := range m.shards {
			if head[i] < end[i] && (oldest < 0 || cand[head[i]].seq < cand[head[oldest]].seq) {
				oldest = i
			}
		}
		if oldest < 0 {
			return
		}
		p := cand[head[oldest]].p
		head[oldest]++
		if !fn(p) {
			return
		}
	}
}

// RefillInactive moves up to n pages from the global LRU head of the
// active queue to the inactive queue (the clock-hand "page aging" step
// the single-flight reclaim pass and BSD VM's pagedaemon perform when the
// inactive queue runs short).
// Referenced pages get a second chance: their reference bit is cleared
// and they return to the active tail. All shards are locked for the
// duration so the merge sees a consistent ordering.
func (m *Mem) RefillInactive(n int) int {
	for i := range m.shards {
		m.shards[i].mu.Lock()
	}
	defer func() {
		for i := range m.shards {
			m.shards[i].mu.Unlock()
		}
	}()

	limit := 0
	for i := range m.shards {
		limit += m.shards[i].active.n
	}
	moved := 0
	scanned := 0
	for moved < n && scanned < limit {
		// Pop the globally least recently used active page.
		var sh *memShard
		for i := range m.shards {
			c := &m.shards[i]
			if c.active.head == nil {
				continue
			}
			if sh == nil || c.active.head.seq < sh.active.head.seq {
				sh = c
			}
		}
		if sh == nil {
			break
		}
		p := sh.active.popHead()
		scanned++
		if p.WireCount.Load() > 0 {
			p.queue = QueueNone
			continue
		}
		if p.Referenced.Load() {
			p.Referenced.Store(false)
			p.queue = QueueActive
			p.seq = m.seqCtr.Add(1)
			sh.active.pushTail(p)
			continue
		}
		p.queue = QueueInactive
		p.seq = m.seqCtr.Add(1)
		sh.inactive.pushTail(p)
		moved++
	}
	return moved
}

// freeListLen counts the global pool's free lists directly (debug
// helper). Frames parked in per-CPU magazines are not included; see
// CachedFreePages for those.
func (m *Mem) freeListLen() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.free.n
		sh.mu.Unlock()
	}
	return n
}
