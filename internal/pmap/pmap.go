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
// instant. At most one bucket is ever held at a time (batch operations
// visit their buckets one after another in ascending index), and bucket
// locks are leaves: nothing is acquired under them. PageProtect snapshots
// a page's pv list under its bucket and releases the bucket before
// touching any pmap, so it never holds a bucket and a pmap mutex
// together in the reverse order.
//
// Bucket lock traffic is counted in the pmap.pv.* stats (acquisitions
// and contended acquisitions); bench/uvmperf reports the ratio as
// fault-path pv contention.
//
// The simulated processor is i386-like: each 4 MB-aligned region of a
// pmap's virtual address space that contains at least one mapping needs a
// page-table page, which is wired kernel memory. Whose bookkeeping records
// that wired memory is one of the Table 1 differences between the two VM
// systems, so the pmap reports page-table page allocation through a hook.
package pmap

import (
	"cmp"
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

// groupByBucket reorders ops in place so that each bucket's edits are
// adjacent, buckets ascending, and a bucket's edits stay in the order
// they were recorded: a stable counting sort by bucket.
func groupByBucket(ops []pvOp) {
	var (
		next [pvShards + 1]int // next[b+1] counts, then next[b] = output cursor of bucket b
		buf  [pvBatch]pvOp
	)
	sorted := buf[:]
	if len(ops) > len(buf) {
		sorted = make([]pvOp, len(ops))
	}
	for i := range ops {
		next[ops[i].bucket+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	for i := range ops {
		b := ops[i].bucket
		sorted[next[b]] = ops[i]
		next[b]++
	}
	copy(ops, sorted)
}

// applyPVLocked applies a batch of reverse-map edits of p's translations:
// ascending bucket order, each bucket locked once, one bucket held at a
// time, a bucket's edits in the order they were recorded. Caller holds
// p.mu, so the batch is atomic against every other edit of this pmap.
func (p *Pmap) applyPVLocked(ops []pvOp) {
	if len(ops) > 1 {
		groupByBucket(ops)
	}
	for i := 0; i < len(ops); {
		b := &p.mmu.buckets[ops[i].bucket]
		p.mmu.lockBucket(b)
		for idx := ops[i].bucket; i < len(ops) && ops[i].bucket == idx; i++ {
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

	// shards is the number of live buckets (a power of two ≤ pvShards).
	// Set once at boot — before any translation exists — by SetPVShards;
	// 1 degrades the table to the classic single-mutex layout, kept as
	// the measured contrast for bench/uvmperf's ref.pv1 row.
	shards  int
	_       sim.CacheLinePad // keeps shards, read by every lookup, off buckets[0]'s line
	buckets [pvShards]pvBucket

	// Cached counter cells: the fault path bumps these on every bucket
	// acquisition, so the name lookup is paid once here.
	ctrAcquires     sim.Counter
	ctrContended    sim.Counter
	ctrBatches      sim.Counter
	ctrBatchPages   sim.Counter
	ctrRmBatches    sim.Counter
	ctrRmBatchPages sim.Counter
}

// NewMMU creates the machine's MMU.
func NewMMU(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats) *MMU {
	m := &MMU{
		clock:           clock,
		costs:           costs,
		stats:           stats,
		shards:          pvShards,
		ctrAcquires:     stats.Counter(sim.CtrPVAcquires),
		ctrContended:    stats.Counter(sim.CtrPVContended),
		ctrBatches:      stats.Counter(sim.CtrPVBatches),
		ctrBatchPages:   stats.Counter(sim.CtrPVBatchPages),
		ctrRmBatches:    stats.Counter(sim.CtrPVBatchRemoves),
		ctrRmBatchPages: stats.Counter(sim.CtrPVBatchRemovePages),
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

// lockBucket acquires b counting the acquisition, and whether it had to
// wait, in the pmap.pv.* stats.
func (m *MMU) lockBucket(b *pvBucket) {
	if !b.mu.TryLock() {
		m.ctrContended.Inc()
		b.mu.Lock()
	}
	m.ctrAcquires.Inc()
}

// Pmap is the translation state for one address space.
type Pmap struct {
	mmu  *MMU
	name string

	//uvm:lock pmap
	mu        sync.Mutex
	pt        map[param.VAddr]PTE
	ptRegions map[param.VAddr]int // 4MB region base -> live PTE count
	wired     int
	lookups   uint64 // Lookup calls served

	// OnPTAlloc/OnPTFree fire when a page-table page is allocated or
	// freed for this pmap. BSD VM points these at kernel-map wiring (which
	// fragments kernel map entries); UVM records the wired state here in
	// the pmap only (paper §3.2).
	OnPTAlloc func()
	OnPTFree  func()
}

// NewPmap creates an empty address-space pmap.
func (m *MMU) NewPmap(name string) *Pmap {
	return &Pmap{
		mmu:       m,
		name:      name,
		pt:        make(map[param.VAddr]PTE),
		ptRegions: make(map[param.VAddr]int),
	}
}

// String names the pmap's address space in panics and test failures.
func (p *Pmap) String() string { return fmt.Sprintf("pmap(%s)", p.name) }

// applyPTLocked updates the page table for one translation — PTE write,
// page-table region refcount, wired accounting — and reports the
// reverse-map delta the caller must apply: the replaced page whose pv
// entry must go (nil if none) and whether pg needs a new pv entry.
// Caller holds p.mu; both Enter and EnterBatch funnel through here so
// their bookkeeping cannot drift apart.
func (p *Pmap) applyPTLocked(va param.VAddr, pg *phys.Page, prot param.Prot, wired bool) (removeOld *phys.Page, add bool) {
	old, had := p.pt[va]
	p.pt[va] = PTE{Page: pg, Prot: prot, Wired: wired}
	if !had {
		p.ptRegionRefLocked(va, +1)
	}
	if had && old.Wired {
		p.wired--
	}
	if wired {
		p.wired++
	}
	if had && old.Page != pg {
		removeOld = old.Page
	}
	return removeOld, !had || old.Page != pg
}

// Enter establishes (or replaces) the translation for va. The page gains a
// pv entry so page-level operations can find this mapping.
func (p *Pmap) Enter(va param.VAddr, pg *phys.Page, prot param.Prot, wired bool) {
	if !param.PageAligned(va) {
		panic("pmap: unaligned Enter")
	}
	p.mmu.clock.Advance(p.mmu.costs.PmapEnter)

	p.mu.Lock()
	removeOld, add := p.applyPTLocked(va, pg, prot, wired)
	if removeOld != nil {
		b := p.mmu.bucketOf(removeOld)
		p.mmu.lockBucket(b)
		b.removeLocked(removeOld, p, va)
		b.mu.Unlock()
	}
	if add {
		b := p.mmu.bucketOf(pg)
		p.mmu.lockBucket(b)
		b.addLocked(pg, p, va)
		b.mu.Unlock()
	}
	p.mu.Unlock()
}

// EnterBatch establishes every translation in entries, exactly as the
// equivalent sequence of Enter calls would, but takes the pmap mutex once
// and each affected pv bucket once for the whole batch instead of once
// per page. The batched fault-ahead path uses it to amortise lock traffic
// across the advice window. VAs must be page-aligned; the per-entry
// PmapEnter cost is charged as usual, so a batch costs the same simulated
// time as the loop it replaces.
func (p *Pmap) EnterBatch(entries []BatchEntry) {
	if len(entries) == 0 {
		return
	}
	for _, be := range entries {
		if !param.PageAligned(be.VA) {
			panic("pmap: unaligned EnterBatch")
		}
	}
	p.mmu.clock.ChargeN(len(entries), p.mmu.costs.PmapEnter)
	p.mmu.ctrBatches.Inc()
	p.mmu.ctrBatchPages.Add(int64(len(entries)))

	var buf [pvBatch]pvOp
	ops := buf[:0]
	p.mu.Lock()
	for _, be := range entries {
		removeOld, add := p.applyPTLocked(be.VA, be.Page, be.Prot, be.Wired)
		if removeOld != nil {
			ops = append(ops, pvOp{pg: removeOld, va: be.VA, bucket: uint8(p.mmu.bucketIndex(removeOld))})
		}
		if add {
			ops = append(ops, pvOp{pg: be.Page, va: be.VA, bucket: uint8(p.mmu.bucketIndex(be.Page)), add: true})
		}
	}
	p.applyPVLocked(ops)
	p.mu.Unlock()
}

// Remove tears down all translations in [start, end).
func (p *Pmap) Remove(start, end param.VAddr) {
	for va := param.Trunc(start); va < end; va += param.PageSize {
		p.removeOne(va)
	}
}

// RemoveBatch tears down every translation in [start, end) exactly as the
// equivalent sequence of Remove calls would, but takes the pmap mutex
// once and each affected pv bucket once for the whole window instead of
// once per page — the teardown mirror of EnterBatch, used by UVM's
// two-phase unmap and address-space exit. The per-translation PmapRemove
// cost is charged as usual, so a batch costs the same simulated time as
// the loop it replaces.
func (p *Pmap) RemoveBatch(start, end param.VAddr) {
	start = param.Trunc(start)

	var buf [pvBatch]pvOp
	ops := buf[:0]
	p.mu.Lock()
	// Collect the translations of the window: for a window smaller than
	// the page table, walk the VA range directly (already sorted); for
	// a huge or whole-space window (RemoveAll), scan the table instead
	// of stepping through an astronomically sparse range, and sort so
	// the pv edits land in the same order the Remove loop produced.
	if span := uint64(end-start) >> param.PageShift; end > start && span < uint64(len(p.pt)) {
		for va := start; va < end; va += param.PageSize {
			if pte, ok := p.pt[va]; ok {
				ops = append(ops, p.dropPTLocked(va, pte))
			}
		}
	} else {
		for va, pte := range p.pt {
			if va >= start && va < end {
				ops = append(ops, p.dropPTLocked(va, pte))
			}
		}
		slices.SortFunc(ops, func(a, b pvOp) int { return cmp.Compare(a.va, b.va) })
	}
	p.applyPVLocked(ops)
	p.mu.Unlock()
	if len(ops) == 0 {
		return
	}

	p.mmu.clock.ChargeN(len(ops), p.mmu.costs.PmapRemove)
	p.mmu.ctrRmBatches.Inc()
	p.mmu.ctrRmBatchPages.Add(int64(len(ops)))
}

func (p *Pmap) removeOne(va param.VAddr) { p.removeIf(va, nil) }

// dropPTLocked deletes va's translation pte from the page table — PTE,
// page-table region refcount, wired accounting — and returns the
// reverse-map edit the caller still owes. Caller holds p.mu.
func (p *Pmap) dropPTLocked(va param.VAddr, pte PTE) pvOp {
	delete(p.pt, va)
	p.ptRegionRefLocked(va, -1)
	if pte.Wired {
		p.wired--
	}
	return pvOp{pg: pte.Page, va: va, bucket: uint8(p.mmu.bucketIndex(pte.Page))}
}

// removeIf tears down va's translation. With only non-nil the teardown
// happens just when the translation still maps that page: PageProtect
// works from a pv snapshot taken under the bucket lock, and a
// translation replaced after the snapshot must not be collateral damage.
func (p *Pmap) removeIf(va param.VAddr, only *phys.Page) {
	p.mu.Lock()
	pte, ok := p.pt[va]
	if !ok || (only != nil && pte.Page != only) {
		p.mu.Unlock()
		return
	}
	op := p.dropPTLocked(va, pte)
	b := &p.mmu.buckets[op.bucket]
	p.mmu.lockBucket(b)
	b.removeLocked(op.pg, p, va)
	b.mu.Unlock()
	p.mu.Unlock()

	p.mmu.clock.Advance(p.mmu.costs.PmapRemove)
}

// Protect narrows the hardware protection of every translation in
// [start, end) to prot. With ProtNone the translations are removed
// (matching pmap_protect semantics on the i386), batched — the pmap
// mutex and each pv bucket taken once for the window.
func (p *Pmap) Protect(start, end param.VAddr, prot param.Prot) {
	if prot == param.ProtNone {
		p.RemoveBatch(start, end)
		return
	}
	for va := param.Trunc(start); va < end; va += param.PageSize {
		p.mu.Lock()
		if pte, ok := p.pt[va]; ok {
			p.mmu.clock.Advance(p.mmu.costs.PmapProtect)
			pte.Prot &= prot
			p.pt[va] = pte
		}
		p.mu.Unlock()
	}
}

// Extract returns the translation for va, if any. It charges the cost of a
// software page-table walk.
func (p *Pmap) Extract(va param.VAddr) (PTE, bool) {
	p.mmu.clock.Advance(p.mmu.costs.PmapExtract)
	p.mu.Lock()
	pte, ok := p.pt[param.Trunc(va)]
	p.mu.Unlock()
	return pte, ok
}

// Lookup is Extract without the cost charge: the fault path's checks of
// whether a lookahead neighbour is already mapped and its re-check of a
// translation it has already paid to walk to, and assertions.
func (p *Pmap) Lookup(va param.VAddr) (PTE, bool) {
	p.mu.Lock()
	p.lookups++
	pte, ok := p.pt[param.Trunc(va)]
	p.mu.Unlock()
	return pte, ok
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
	pte, ok := p.pt[param.Trunc(va)]
	if !ok {
		return
	}
	if pte.Wired != wired {
		if wired {
			p.wired++
		} else {
			p.wired--
		}
		pte.Wired = wired
		p.pt[param.Trunc(va)] = pte
	}
}

// ResidentCount returns the number of valid translations.
func (p *Pmap) ResidentCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pt)
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
	return len(p.ptRegions)
}

// ptRegionRefLocked adjusts the PTE count of va's 4 MB region, firing the
// allocation/free hooks at the 0<->1 transitions. Caller holds p.mu.
func (p *Pmap) ptRegionRefLocked(va param.VAddr, delta int) {
	region := va >> ptRegionShift << ptRegionShift
	n := p.ptRegions[region] + delta
	switch {
	case n < 0:
		panic("pmap: page-table region refcount underflow")
	case n == 0:
		delete(p.ptRegions, region)
		if p.OnPTFree != nil {
			p.OnPTFree()
		}
	default:
		if p.ptRegions[region] == 0 && p.OnPTAlloc != nil {
			p.OnPTAlloc()
		}
		p.ptRegions[region] = n
	}
}

// RemoveAll tears down every translation (address-space teardown). It is
// a whole-space RemoveBatch: the pmap mutex and each affected pv bucket
// are taken once for the entire space.
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
		if pte, ok := pm.pt[e.VA]; ok && pte.Page == pg {
			m.clock.Advance(m.costs.PmapProtect)
			pte.Prot &= prot
			pm.pt[e.VA] = pte
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
