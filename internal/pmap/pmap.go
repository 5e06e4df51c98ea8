// Package pmap is the machine-dependent layer of the simulated kernel: a
// software MMU. It implements the Mach-style pmap API that both BSD VM and
// UVM program — the paper stresses (§2, §10) that UVM deliberately reuses
// BSD VM's pmap layer unchanged, so in this reproduction there is exactly
// one pmap implementation and both machine-independent VM systems drive
// it.
//
// A pmap holds the translations for one address space. The MMU keeps a
// reverse map (pv list) from each physical page to every translation that
// maps it, which is what makes pmap_page_protect — write-protecting or
// removing all mappings of a page for copy-on-write and pageout — possible.
//
// # The sharded reverse map
//
// A frame's pv list lives in the frame itself (phys.Page.PV): the first
// mapping inline, any further ones in an overflow slice, so entering,
// removing or protecting a singly-mapped page — the common case — looks
// nothing up and allocates nothing. The lists are shared by every address
// space on the machine, so a single mutex around them would serialise all
// faults system-wide — the exact serialisation point the fine-grained VM
// locking was built to avoid. They are therefore guarded by pvShards
// bucket mutexes, a page hashing to the bucket of its physical frame
// number. Page-level operations (Enter, Remove, PageProtect, pv walks)
// lock only the one bucket their page hashes to, so faults in different
// address spaces — which overwhelmingly touch different frames — proceed
// without contending.
//
// Locking: a pmap's own mutex (p.mu, guarding its page table) nests
// ABOVE pv bucket locks — Enter/Remove update the page table and the
// reverse map under p.mu so the two stay mutually inverse at every
// instant. At most one bucket is ever held at a time (a batch applies its
// pv edits in VA order, taking a bucket once for each run of adjacent
// edits that hash to it), and bucket locks are leaves: nothing is
// acquired under them. PageProtect snapshots a page's pv list under its
// bucket and releases the bucket before touching any pmap, so it never
// holds a bucket and a pmap mutex together in the reverse order.
//
// Bucket lock traffic is counted in the pmap.pv.* stats (acquisitions
// and contended acquisitions); bench/uvmperf reports the ratio as
// fault-path pv contention.
//
// # The page table
//
// The simulated processor is the i386, and a pmap's translations live in
// its two-level page table. The page directory names, in VA order, each
// 4 MB region of the address space that holds at least one translation,
// with that region's live PTE count and its page-table page: 1024 32-bit
// PTEs, the frame's physical address in the high 20 bits and the valid,
// wired and protection bits in the low ones. A page-table page holds no
// pointers; a PTE names its frame through the machine's frame array. A
// range operation walks the present page-table pages in VA order. A
// page-table page is wired kernel memory, allocated when its region gains
// its first translation and freed when it loses its last. Whose
// bookkeeping records that wired memory is one of the Table 1 differences
// between the two VM systems, so the pmap reports both transitions
// through hooks.
package pmap

import (
	"fmt"
	"slices"
	"sync"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
)

// ptRegionShift selects the i386 page-table granularity: one page-table
// page maps 4 MB (1024 PTEs of 4 KB).
const ptRegionShift = 22

const (
	ptRegionSize = param.VAddr(1) << ptRegionShift
	ptEntries    = 1 << (ptRegionShift - param.PageShift)

	// vaLimit is the end of the 32-bit virtual address space, and
	// maxFrames the number of frames a 32-bit PTE can name.
	vaLimit   = param.VAddr(1) << 32
	maxFrames = 1 << (32 - param.PageShift)

	// The low bits of a PTE; the frame address fills the high 20.
	pteValid     uint32 = 1 << 0
	pteWired     uint32 = 1 << 1
	pteProtShift        = 2 // three bits: param.ProtRWX
	pteFrame            = ^uint32(param.PageSize - 1)
)

// pvShards is the number of reverse-map buckets. 64 comfortably exceeds
// any plausible host core count, so two concurrent faults on different
// frames almost never share a bucket; being a power of two keeps the
// frame-number hash a mask.
const pvShards = 64

// PTE is one translation: virtual page -> physical frame with a hardware
// protection. Wired marks translations that must not be torn down by
// pageout (the pmap-level wired attribute).
type PTE struct {
	Page  *phys.Page
	Prot  param.Prot
	Wired bool
}

// BatchEntry is one translation for Pmap.EnterBatch.
type BatchEntry struct {
	VA    param.VAddr
	Page  *phys.Page
	Prot  param.Prot
	Wired bool
}

// ptPage is one page-table page: the 32-bit PTEs of one 4 MB region.
type ptPage [ptEntries]uint32

// pde is one page-directory entry: a present page-table page, the base
// VA of the region it maps and how many of its PTEs are valid.
type pde struct {
	base param.VAddr
	n    int
	pt   *ptPage
}

// ptIndex returns the index of va's PTE within its page-table page.
func ptIndex(va param.VAddr) int { return int(va>>param.PageShift) & (ptEntries - 1) }

// encodePTE builds the PTE word mapping pg.
func encodePTE(pg *phys.Page, prot param.Prot, wired bool) uint32 {
	w := uint32(pg.PA) | uint32(prot&param.ProtRWX)<<pteProtShift | pteValid
	if wired {
		w |= pteWired
	}
	return w
}

// pvBucket is one shard of the reverse map: its mutex guards the pv list
// (phys.Page.PV) of every page whose frame number hashes here. A bucket is
// two whole cache lines, a line of padding after its lock and count, so
// two buckets locked by two cores never share a line.
type pvBucket struct {
	//uvm:lock pvbucket
	mu sync.Mutex
	n  int // live pv entries under this bucket
	_  sim.CacheLinePad
	_  [48]byte // rounds the bucket up to 128 bytes
}

// pvOwner returns the address space a pv entry belongs to (nil for the
// empty entry).
func pvOwner(e phys.PVEntry) *Pmap {
	pm, _ := e.Pmap.(*Pmap)
	return pm
}

// addLocked records that (pm, va) maps pg. Caller holds the bucket's
// mutex.
func (b *pvBucket) addLocked(pg *phys.Page, pm *Pmap, va param.VAddr) {
	e := phys.PVEntry{Pmap: pm, VA: va}
	if l := &pg.PV; l.First.Pmap == nil {
		l.First = e
	} else {
		l.More = append(l.More, e)
	}
	b.n++
}

// removeLocked drops the (pm, va) entry from pg's pv list. The vacated
// slot is refilled from the end of the overflow — the inline slot too, so
// the list is empty exactly when First is — and the overflow's spare
// capacity is cleared, not kept pointing at a pmap. Caller holds the
// bucket's mutex.
func (b *pvBucket) removeLocked(pg *phys.Page, pm *Pmap, va param.VAddr) {
	l := &pg.PV
	slot := &l.First
	if pvOwner(*slot) != pm || slot.VA != va {
		slot = nil
		for i := range l.More {
			if e := &l.More[i]; pvOwner(*e) == pm && e.VA == va {
				slot = e
				break
			}
		}
		if slot == nil {
			return
		}
	}
	if last := len(l.More) - 1; last >= 0 {
		*slot = l.More[last]
		l.More[last] = phys.PVEntry{}
		l.More = l.More[:last]
	} else {
		*slot = phys.PVEntry{}
	}
	b.n--
}

// pvOp is one reverse-map edit of a batch: add or remove (pm, va) on pg,
// under the given bucket.
type pvOp struct {
	pg     *phys.Page
	va     param.VAddr
	bucket uint8
	add    bool
}

// pvBatch is the size of the on-stack op buffers of EnterBatch and
// RemoveBatch: a munmap of up to this many pages, or a lookahead window
// of half as many, edits the reverse map without touching the heap.
const pvBatch = 64

// applyPVLocked applies reverse-map edits of p's translations in the
// order they were recorded, one bucket held at a time, each run of
// adjacent edits under one bucket in one acquisition. Caller holds p.mu,
// so the batch is atomic against every other edit of this pmap.
func (p *Pmap) applyPVLocked(ops []pvOp) {
	for i := 0; i < len(ops); {
		idx := ops[i].bucket
		b := &p.mmu.buckets[idx]
		p.mmu.lockBucket(b)
		for ; i < len(ops) && ops[i].bucket == idx; i++ {
			if op := &ops[i]; op.add {
				b.addLocked(op.pg, p, op.va)
			} else {
				b.removeLocked(op.pg, p, op.va)
			}
		}
		b.mu.Unlock()
	}
}

// MMU is the machine: it owns the sharded reverse (pv) table shared by
// all pmaps.
type MMU struct {
	clock *sim.Clock
	costs *sim.Costs
	stats *sim.Stats
	mem   *phys.Mem // the frames PTEs name

	// shards is the number of live buckets (a power of two ≤ pvShards).
	// Set once at boot — before any translation exists — by SetPVShards;
	// 1 degrades the table to the classic single-mutex layout, kept as
	// the measured contrast for bench/uvmperf's ref.pv1 row.
	shards  int
	_       sim.CacheLinePad // keeps shards, read by every lookup, off buckets[0]'s line
	buckets [pvShards]pvBucket
}

// NewMMU creates the MMU of a machine whose physical memory is mem. It
// panics if a 32-bit PTE cannot name every frame of mem.
func NewMMU(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, mem *phys.Mem) *MMU {
	if mem.TotalPages() > maxFrames {
		panic(fmt.Sprintf("pmap: %d frames, a 32-bit PTE names %d", mem.TotalPages(), maxFrames))
	}
	m := &MMU{
		clock:  clock,
		costs:  costs,
		stats:  stats,
		mem:    mem,
		shards: pvShards,
	}
	return m
}

// SetPVShards restricts the reverse map to n buckets (rounded down to a
// power of two, clamped to [1, 64]). It exists so benchmarks and
// experiments can compare the sharded table against the single-mutex
// layout (n=1); production boots keep the default. Must be called before
// any translation is entered — it panics if mappings already exist.
func (m *MMU) SetPVShards(n int) {
	for i := range m.buckets {
		m.buckets[i].mu.Lock()
		populated := m.buckets[i].n > 0
		m.buckets[i].mu.Unlock()
		if populated {
			panic("pmap: SetPVShards after mappings exist")
		}
	}
	if n < 1 {
		n = 1
	}
	if n > pvShards {
		n = pvShards
	}
	for n&(n-1) != 0 {
		n &= n - 1 // round down to a power of two
	}
	m.shards = n
}

// bucketIndex hashes a page to its reverse-map bucket: the physical frame
// number masked by the live shard count, so adjacent frames land in
// different buckets.
func (m *MMU) bucketIndex(pg *phys.Page) int {
	return int(uint64(pg.PA)>>param.PageShift) & (m.shards - 1)
}

func (m *MMU) bucketOf(pg *phys.Page) *pvBucket { return &m.buckets[m.bucketIndex(pg)] }

// pvOp builds the reverse-map edit adding or removing a mapping of pg.
func (m *MMU) pvOp(pg *phys.Page, va param.VAddr, add bool) pvOp {
	return pvOp{pg: pg, va: va, bucket: uint8(m.bucketIndex(pg)), add: add}
}

// frame returns the frame a valid PTE word maps.
func (m *MMU) frame(w uint32) *phys.Page { return m.mem.Frame(int(w >> param.PageShift)) }

// decode returns the translation a PTE word holds, if it is valid.
func (m *MMU) decode(w uint32) (PTE, bool) {
	if w&pteValid == 0 {
		return PTE{}, false
	}
	return PTE{Page: m.frame(w), Prot: param.Prot(w>>pteProtShift) & param.ProtRWX, Wired: w&pteWired != 0}, true
}

// lockBucket acquires b counting the acquisition, and whether it had to
// wait, in the pmap.pv.* stats.
func (m *MMU) lockBucket(b *pvBucket) {
	if !b.mu.TryLock() {
		m.stats.PVContended.Inc()
		b.mu.Lock()
	}
	m.stats.PVAcquires.Inc()
}

// Pmap is the translation state for one address space.
type Pmap struct {
	mmu  *MMU
	name string

	//uvm:lock pmap
	mu      sync.Mutex
	dir     []pde   // the page directory: present page-table pages, ascending base
	spare   *ptPage // the last emptied page-table page, reused by the next region
	wired   int
	lookups uint64 // Lookup calls served

	// OnPTAlloc/OnPTFree fire when a page-table page is allocated or
	// freed for this pmap. BSD VM points these at kernel-map wiring (which
	// fragments kernel map entries); UVM records the wired state here in
	// the pmap only (paper §3.2).
	OnPTAlloc func()
	OnPTFree  func()
}

// NewPmap creates an empty address-space pmap.
func (m *MMU) NewPmap(name string) *Pmap {
	return &Pmap{mmu: m, name: name}
}

// String names the pmap's address space in panics and test failures.
func (p *Pmap) String() string { return fmt.Sprintf("pmap(%s)", p.name) }

// findLocked returns the directory index of va's page-table page and
// whether it is present; if not, the index is where it would go. Caller
// holds p.mu.
func (p *Pmap) findLocked(va param.VAddr) (int, bool) {
	base := va &^ (ptRegionSize - 1)
	lo, hi := 0, len(p.dir)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); p.dir[h].base < base {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(p.dir) && p.dir[lo].base == base
}

// slotLocked returns va's PTE and the directory index of its page-table
// page, or nil if that page is not present. Caller holds p.mu.
func (p *Pmap) slotLocked(va param.VAddr) (*uint32, int) {
	i, ok := p.findLocked(va)
	if !ok {
		return nil, i
	}
	return &p.dir[i].pt[ptIndex(va)], i
}

// pteLocked returns va's PTE word, 0 if va is unmapped. Caller holds p.mu.
func (p *Pmap) pteLocked(va param.VAddr) uint32 {
	if w, _ := p.slotLocked(va); w != nil {
		return *w
	}
	return 0
}

// allocPTLocked inserts a page-table page for va's region at directory
// index i — the spare if there is one. Caller holds p.mu.
func (p *Pmap) allocPTLocked(i int, va param.VAddr) {
	pt := p.spare
	if pt == nil {
		pt = new(ptPage)
	}
	p.spare = nil
	p.dir = slices.Insert(p.dir, i, pde{base: va &^ (ptRegionSize - 1), pt: pt})
	if p.OnPTAlloc != nil {
		p.OnPTAlloc()
	}
}

// freePTLocked drops the emptied page-table page at directory index i,
// keeping it as the spare if there is none. Caller holds p.mu.
func (p *Pmap) freePTLocked(i int) {
	if p.spare == nil {
		p.spare = p.dir[i].pt
	}
	p.dir = slices.Delete(p.dir, i, i+1)
	if p.OnPTFree != nil {
		p.OnPTFree()
	}
}

// enterLocked writes va's PTE — allocating its page-table page if need
// be, keeping the live and wired counts — and appends to ops the
// reverse-map edits the caller owes: the replaced page's pv entry goes,
// pg's arrives. Caller holds p.mu; Enter and EnterBatch both funnel
// through here so their bookkeeping cannot drift apart.
func (p *Pmap) enterLocked(ops []pvOp, va param.VAddr, pg *phys.Page, prot param.Prot, wired bool) []pvOp {
	i, ok := p.findLocked(va)
	if !ok {
		p.allocPTLocked(i, va)
	}
	e := &p.dir[i]
	slot := &e.pt[ptIndex(va)]
	old, w := *slot, encodePTE(pg, prot, wired)
	*slot = w
	if wired {
		p.wired++
	}
	if old&pteValid == 0 {
		e.n++
	} else {
		if old&pteWired != 0 {
			p.wired--
		}
		if old&pteFrame == w&pteFrame {
			return ops
		}
		ops = append(ops, p.mmu.pvOp(p.mmu.frame(old), va, false))
	}
	return append(ops, p.mmu.pvOp(pg, va, true))
}

// mustMap panics unless va can be entered: page-aligned, and inside the
// 32-bit virtual address space.
func mustMap(va param.VAddr, op string) {
	if !param.PageAligned(va) {
		panic("pmap: unaligned " + op)
	}
	if va >= vaLimit {
		panic(fmt.Sprintf("pmap: %s at %#x, beyond the 32-bit address space", op, va))
	}
}

// Enter establishes (or replaces) the translation for va. The page gains a
// pv entry so page-level operations can find this mapping.
func (p *Pmap) Enter(va param.VAddr, pg *phys.Page, prot param.Prot, wired bool) {
	mustMap(va, "Enter")
	p.mmu.clock.Advance(p.mmu.costs.PmapEnter)

	var buf [2]pvOp
	p.mu.Lock()
	p.applyPVLocked(p.enterLocked(buf[:0], va, pg, prot, wired))
	p.mu.Unlock()
}

// EnterBatch establishes every translation in entries, exactly as the
// equivalent sequence of Enter calls would, but takes the pmap mutex once
// for the whole batch instead of once per page. The batched fault-ahead
// path uses it to amortise lock traffic across the advice window. VAs
// must be page-aligned; the per-entry PmapEnter cost is charged as usual,
// so a batch costs the same simulated time as the loop it replaces.
func (p *Pmap) EnterBatch(entries []BatchEntry) {
	if len(entries) == 0 {
		return
	}
	for _, be := range entries {
		mustMap(be.VA, "EnterBatch")
	}
	p.mmu.clock.ChargeN(len(entries), p.mmu.costs.PmapEnter)
	p.mmu.stats.PVBatches.Inc()
	p.mmu.stats.PVBatchPages.Add(int64(len(entries)))

	var buf [pvBatch]pvOp
	ops := buf[:0]
	p.mu.Lock()
	for _, be := range entries {
		ops = p.enterLocked(ops, be.VA, be.Page, be.Prot, be.Wired)
	}
	p.applyPVLocked(ops)
	p.mu.Unlock()
}

// Remove tears down all translations in [start, end).
func (p *Pmap) Remove(start, end param.VAddr) {
	for va := param.Trunc(start); va < end; va += param.PageSize {
		p.removeIf(va, nil)
	}
}

// RemoveBatch tears down every translation in [start, end) exactly as the
// equivalent sequence of Remove calls would, but takes the pmap mutex
// once for the whole window instead of once per page — the teardown
// mirror of EnterBatch, used by UVM's two-phase unmap and address-space
// exit. It walks only the present page-table pages. The per-translation
// PmapRemove cost is charged as usual, so a batch costs the same
// simulated time as the loop it replaces.
func (p *Pmap) RemoveBatch(start, end param.VAddr) {
	var buf [pvBatch]pvOp
	ops := buf[:0]
	p.mu.Lock()
	p.walkLocked(param.Trunc(start), end, func(e *pde, va param.VAddr, slot *uint32) {
		ops = append(ops, p.clearLocked(e, va, slot))
	})
	p.applyPVLocked(ops)
	p.mu.Unlock()
	if len(ops) == 0 {
		return
	}

	p.mmu.clock.ChargeN(len(ops), p.mmu.costs.PmapRemove)
	p.mmu.stats.PVBatchRemoves.Inc()
	p.mmu.stats.PVBatchRemovePages.Add(int64(len(ops)))
}

// walkLocked calls fn on every valid PTE in [start, end) — start
// page-aligned — in VA order, with its directory entry, and frees each
// page-table page fn empties. Caller holds p.mu.
func (p *Pmap) walkLocked(start, end param.VAddr, fn func(e *pde, va param.VAddr, slot *uint32)) {
	i, _ := p.findLocked(start)
	for i < len(p.dir) && p.dir[i].base < end {
		e := &p.dir[i]
		hi := min(end, e.base+ptRegionSize)
		for va := max(start, e.base); va < hi && e.n > 0; va += param.PageSize {
			if slot := &e.pt[ptIndex(va)]; *slot&pteValid != 0 {
				fn(e, va, slot)
			}
		}
		if e.n == 0 {
			p.freePTLocked(i)
		} else {
			i++
		}
	}
}

// clearLocked invalidates va's PTE slot in page-table page e, keeping the
// live and wired counts, and returns the reverse-map edit the caller
// still owes. Caller holds p.mu, in a walk that frees e if this emptied
// it.
func (p *Pmap) clearLocked(e *pde, va param.VAddr, slot *uint32) pvOp {
	w := *slot
	*slot = 0
	e.n--
	if w&pteWired != 0 {
		p.wired--
	}
	return p.mmu.pvOp(p.mmu.frame(w), va, false)
}

// removeIf tears down va's translation. With only non-nil the teardown
// happens just when the translation still maps that page: PageProtect
// works from a pv snapshot taken under the bucket lock, and a
// translation replaced after the snapshot must not be collateral damage.
func (p *Pmap) removeIf(va param.VAddr, only *phys.Page) {
	var buf [1]pvOp
	ops := buf[:0]
	p.mu.Lock()
	p.walkLocked(va, va+param.PageSize, func(e *pde, va param.VAddr, slot *uint32) {
		if only == nil || *slot&pteFrame == uint32(only.PA) {
			ops = append(ops, p.clearLocked(e, va, slot))
		}
	})
	p.applyPVLocked(ops)
	p.mu.Unlock()
	if len(ops) > 0 {
		p.mmu.clock.Advance(p.mmu.costs.PmapRemove)
	}
}

// narrow clears the protection bits of PTE slot that prot does not grant.
func narrow(slot *uint32, prot param.Prot) {
	*slot &^= uint32(^prot&param.ProtRWX) << pteProtShift
}

// Protect narrows the hardware protection of every translation in
// [start, end) to prot. With ProtNone the translations are removed
// (matching pmap_protect semantics on the i386), batched — the pmap
// mutex taken once for the window.
func (p *Pmap) Protect(start, end param.VAddr, prot param.Prot) {
	if prot == param.ProtNone {
		p.RemoveBatch(start, end)
		return
	}
	p.mu.Lock()
	p.walkLocked(param.Trunc(start), end, func(_ *pde, _ param.VAddr, slot *uint32) {
		p.mmu.clock.Advance(p.mmu.costs.PmapProtect)
		narrow(slot, prot)
	})
	p.mu.Unlock()
}

// Extract returns the translation for va, if any. It charges the cost of a
// software page-table walk.
func (p *Pmap) Extract(va param.VAddr) (PTE, bool) {
	p.mmu.clock.Advance(p.mmu.costs.PmapExtract)
	p.mu.Lock()
	w := p.pteLocked(va)
	p.mu.Unlock()
	return p.mmu.decode(w)
}

// Lookup is Extract without the cost charge: the fault path's checks of
// whether a lookahead neighbour is already mapped and its re-check of a
// translation it has already paid to walk to, and assertions.
func (p *Pmap) Lookup(va param.VAddr) (PTE, bool) {
	p.mu.Lock()
	p.lookups++
	w := p.pteLocked(va)
	p.mu.Unlock()
	return p.mmu.decode(w)
}

// Lookups returns how many Lookup calls the pmap has served. Tests fence
// the fault path's lookup traffic with it.
func (p *Pmap) Lookups() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lookups
}

// ChangeWiring flips the pmap-level wired attribute of va's translation.
func (p *Pmap) ChangeWiring(va param.VAddr, wired bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slot, _ := p.slotLocked(va)
	if slot == nil || *slot&pteValid == 0 || (*slot&pteWired != 0) == wired {
		return
	}
	*slot ^= pteWired
	if wired {
		p.wired++
	} else {
		p.wired--
	}
}

// ResidentCount returns the number of valid translations.
func (p *Pmap) ResidentCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, e := range p.dir {
		n += e.n
	}
	return n
}

// wiredCount returns the number of wired translations.
func (p *Pmap) wiredCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wired
}

// PTPages returns the number of page-table pages currently allocated.
func (p *Pmap) PTPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.dir)
}

// RemoveAll tears down every translation (address-space teardown). It is
// a whole-space RemoveBatch: the pmap mutex is taken once for the entire
// space.
func (p *Pmap) RemoveAll() {
	p.RemoveBatch(0, ^param.VAddr(0))
}

// PageProtect narrows the protection of every mapping of pg, in every
// pmap, to prot. ProtNone removes all mappings. This is the pmap primitive
// behind copy-on-write write-protection at fork and behind pageout. Only
// pg's own pv bucket is locked (to snapshot the mapping list), so
// PageProtect calls on pages in different buckets do not contend.
func (m *MMU) PageProtect(pg *phys.Page, prot param.Prot) {
	var buf [8]phys.PVEntry // the snapshot of a page mapped this often stays on the stack
	entries := buf[:0]
	b := m.bucketOf(pg)
	m.lockBucket(b)
	if l := &pg.PV; l.First.Pmap != nil {
		entries = append(append(entries, l.First), l.More...)
	}
	b.mu.Unlock()

	for _, e := range entries {
		pm := pvOwner(e)
		if prot == param.ProtNone {
			pm.removeIf(e.VA, pg)
			continue
		}
		pm.mu.Lock()
		if slot, _ := pm.slotLocked(e.VA); slot != nil && *slot&pteValid != 0 && *slot&pteFrame == uint32(pg.PA) {
			m.clock.Advance(m.costs.PmapProtect)
			narrow(slot, prot)
		}
		pm.mu.Unlock()
	}
}

// pageMappings returns how many translations currently map pg.
func (m *MMU) pageMappings(pg *phys.Page) int {
	b := m.bucketOf(pg)
	b.mu.Lock()
	defer b.mu.Unlock()
	if pg.PV.First.Pmap == nil {
		return 0
	}
	return 1 + len(pg.PV.More)
}
