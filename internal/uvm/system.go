// Package uvm implements UVM, the paper's contribution: a virtual memory
// system with two-level (amap + object) copy-on-write instead of shadow
// object chains, memory objects embedded in their data sources, a
// general-purpose fault handler with resident-page lookahead, single-call
// mapping, two-phase unmap, wiring without map fragmentation, aggressive
// clustered anonymous pageout with swap-slot reassignment, and three
// VM-based data movement mechanisms (page loanout, page transfer, map
// entry passing).
//
// It boots on the same vmapi.Machine substrate as internal/bsdvm — same
// pmap layer, same cost table, same disks — so every measured difference
// between the two packages is a design difference the paper describes.
//
// # Locking
//
// Unlike internal/bsdvm, which serialises every kernel entry behind one
// big lock (a pre-SMP BSD kernel), this package uses fine-grained
// locking so independent processes fault, loan, transfer and page out
// concurrently:
//
//   - each vmMap carries a sync.RWMutex: mutating operations (mmap,
//     munmap, fork, mprotect, wiring, map entry passing) take it
//     exclusively; the fault path takes it shared, upgrading to
//     exclusive only when it must mutate the entry itself (clearing
//     needs-copy / allocating the amap);
//   - each amap, anon and uobject carries its own mutex guarding its
//     reference count and contents;
//   - page state bits, identity and loan references are atomics (see
//     internal/phys): whoever acts on a frame's owner locks it and
//     re-checks that it still holds the frame (owns), and a dying
//     owner and its last borrower free a loaned frame exactly once;
//   - the page queues in internal/phys are sharded with per-shard locks;
//   - the stat counters in internal/sim are lock-free atomics.
//
// The lock ordering is:
//
//	map -> object -> amap -> anon -> flights -> leaf
//
// where "flights" is System.flMu — the flights' counters and the reclaim
// pass's state, with one condvar — and "leaf" covers the
// pmap/MMU locks, the phys queue shards, the swap allocator, vfs and disk
// — none of which acquire VM-layer locks. Two map locks nest only
// parent-before-child during fork (the child is not yet visible to any
// other goroutine). internal/analysis.Levels is the machine-checked form
// of this order.
//
// Within the pmap leaf there is one further level: a pmap's own mutex
// nests above the MMU's sharded reverse-map (pv) bucket locks, at most
// one bucket is held at a time (a batch applies its pv edits in VA
// order, one bucket after another), and bucket locks are strict
// leaves — nothing is acquired under them (see the locking note in
// internal/pmap). The batched fault-ahead path (lookahead) resolves its
// whole advice window under one amap lock acquisition — candidate anons
// are TryLocked, busy neighbours drop out — plus at most one object
// acquisition taken lazily when a candidate lacks an anon; with the
// amap held that object acquisition is out of order, which is safe
// because it is TryLock-only and so can never form a blocking cycle.
// The collected owner locks are held across a single Pmap.EnterBatch,
// so reclaim's TryLock-and-skip protocol keeps those pages live until
// they are mapped.
//
// The phys leaf likewise has internal structure when the per-CPU
// free-page caches are enabled (phys.Mem.SetAllocCaches): a magazine
// lock sits above the page-queue shard locks — refill, drain and reap
// take shard locks while holding one magazine — and sibling magazines
// are only ever TryLocked (the pool-dry steal path), so magazines can
// never form a blocking cycle among themselves. Nothing in phys
// acquires VM-layer locks, so the phys-internal ordering is invisible
// to the map -> object -> amap -> anon hierarchy above; completion
// callbacks and reclaim may free or allocate pages (touching magazines
// and shards) under the same rules as before.
//
// # Pageout
//
// Reclaim runs on the allocating goroutine (see reclaim.go), and one pass
// at a time. Every allocator that finds the free list empty goes through
// one loop (allocPage): it runs the reclaim pass — one scan of the
// inactive queue in global LRU order (reclaimScan) — or, if another
// allocator is running it, sleeps until that pass ends; then it retries.
// There is no daemon and no watermark. An allocator reports ErrDeadlock
// only when its own pass frees nothing while no frame is free and no
// flight is pending. The pass acquires anon/object locks only with
// TryLock and skips pages whose owner is busy, so it can run concurrently
// with any allocation path — even one that already holds map, amap, anon
// or object locks, including the allocators waiting on it — without
// deadlocking; pages clustered for pageout keep their owner locked until
// the I/O completes, which is what makes a concurrent fault on a page
// mid-pageout block and then cleanly page back in. System.Shutdown waits
// for a running pass to end and then for the writes still in the air.
//
// # Flights
//
// Every write of a dirty page to backing store is a flight (flight.go):
// a set of Busy pages, the owner locks handed over with them (possibly
// none), a completion policy and a pending-run counter, with one
// completion function behind it. Reclaim's pageout is an evict
// flight — one per scan pass, carrying the dirty anon/aobj cluster (its
// swap locations reassigned into one contiguous run, else one slot per
// page) and the dirty vnode pages, plus every owner lock the pass kept;
// the last completion detaches and frees the written pages and releases
// the owners. Msync, vnode recycling and the last-unmap flush (objwb.go)
// are clean flights over one object's dirty pages, marked Busy under the
// object lock and handed over without it; the completion clears Dirty and
// Busy and the pages stay resident. A fault or file write that hits a
// Busy page sleeps on the flight condvar. Under either policy a page
// whose write failed stays dirty and just gives its Busy claim back.
//
// Run length is a property of the pages, not of who waits: every flight
// leaves as runs of consecutive backing-store blocks — object pages cut
// at index gaps and at cfg.WritebackCluster (flight.objRuns), anonymous
// memory placed on one fresh contiguous slot run — and each run is one
// I/O. cfg.DisableClustering is the one switch that makes every run one
// page long.
//
// Synchronous or asynchronous is a flag on the flight, not a second
// pipeline; it decides only whose clock pays and where the completion
// runs. By default every flight is synchronous: each run is written with
// the clock-charged primitive and the completion runs inline on the
// submitter, which keeps single-threaded runs byte-deterministic. With
// cfg.AsyncPageout the reclaim pass's flights and with cfg.AsyncWriteback
// the object flushes go through the backend's bounded in-flight window
// (disk.AsyncWriter: vnode pages via the filesystem's writer, swap pages
// via the device's) and complete on I/O goroutines while the submitter
// scans on or merely waits. System.flights counts those flights in the
// air: an allocator whose pass frees nothing while the count is non-zero
// sleeps for a completion instead of reporting ErrDeadlock, and Shutdown
// waits for the count to reach zero.
//
// Completions inherit the lock order mid-chain: they hold (but never
// acquire) the anon/object locks handed over, and may only take locks
// strictly below them — flMu and leaf locks (phys queue
// shards, the swap allocator). A completion must never lock a map, an
// amap, an anon or an object, and never blocks on a TryLock-only path, so it cannot deadlock against
// faults, reclaim, or Shutdown.
//
// # Pageins
//
// Every read of a page from backing store is a pagein (pagein.go), the
// read-side twin of the flight and the paper's pager get (§6): a run of
// frames the pager allocated itself, bound for consecutive backing-store
// blocks — swap slots, or pages of a vnode — marked Busy, filled by one
// I/O issued from one function (readRun) and installed at one site
// (finishRun: Busy and Dirty off, each frame attached to its anon or
// object, every frame but the one the fault maps activated, every
// counter). If the read or the frame allocation before it fails, every
// frame of the run is freed and nothing is attached. A single-page
// pagein is a run of one.
//
// There is one rule for every backing store: a pagein fills the fault's
// advice window with one I/O. A fault that needs an object page goes
// through objPage — a sleep on the flight condvar while the page is Busy,
// the pager's get if it is not resident — and tells get the index range
// it is prepared to use: the entry's advice window clipped to the entry.
// The pager decides how much of it one I/O brings in. The
// vnode pager reads the whole stretch of non-resident pages around the
// faulting index inside that range and the file, so a cold sequential
// touch of a file costs one disk command per advice window, and the
// fault-time lookahead maps the new neighbours in the same fault.
//
// Swap-backed memory has no fixed home, so pageout lays it out for the
// read: a dirty cluster takes its contiguous slots in layout-key order
// (flight.swapRun) — amap and slot for an anon, object and index for an
// aobj page — which makes slot order VA order inside a cluster. A fault on
// a swapped-out anon (anonPagein) walks outward from its slot through the
// amap inside the advice window, taking each neighbour while it TryLocks,
// is swapped out and holds exactly the next swap slot, stopping on each
// side at the first that does not; the locks stay held across the
// allocation and the I/O. A fault on a swapped-out aobj page goes through
// the aobj pager's get, which offers objNeighbours the same window. The
// key is a hint: what is read is decided by the slots held at fault time.
//
// cfg.DisableClustering and random advice narrow every run to one page
// per command; cfg.PageinCluster > 0 caps a swap-backed run.
//
// objNeighbours makes the same walk (walkRun: ahead, then behind, each
// neighbour while its block is the next one) over index neighbours under
// the object lock, which every frame allocation drops: the faulting index
// is re-verified under the retaken lock and the walk made again over the
// survivors, and objPagein starts over until the page's state holds
// still. A cluster that cannot get its frames or whose read fails
// degrades to the centre page alone — a second run, of length one — and
// only that run's error fails the fault.
package uvm

import (
	"sync"
	"sync/atomic"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// Sizing constants. Each has the one value UVM runs with.
const (
	// maxCluster is the largest anonymous pageout cluster reclaim
	// assembles (64 pages = 256 KB, UVM's default), and the default cap on
	// an object writeback run.
	maxCluster = 64
	// reclaimBatch is the free target of one reclaim pass.
	reclaimBatch = 64
	// kernelEntryPool bounds kernel map entries, as in BSD VM.
	kernelEntryPool = 4000
)

// Config tunes UVM. Use DefaultConfig as the baseline.
type Config struct {
	// DisableClustering is the one switch for "no clustering anywhere":
	// every page write — anonymous pageout, file pageout, Msync, recycle,
	// synchronous or not — is one page per I/O to the page's own slot or
	// block, reclaim's flights stay synchronous, and every file
	// pagein reads one page (the BSD VM ablation for Figure 5).
	DisableClustering bool
	// AsyncPageout overlaps pageout I/O with the reclaim scan: the pass's
	// flights go through the backends' in-flight windows and it keeps
	// scanning; the completion frees the pages and releases their owners.
	// An allocator whose pass only submitted waits for one completion.
	AsyncPageout bool
	// PageoutWindow bounds in-flight asynchronous cluster writes to the
	// swap disk (backpressure on the reclaim scan). 0 means
	// disk.DefaultAIOWindow.
	PageoutWindow int
	// PageinCluster caps the run of a swap-backed pagein, in pages. 0, the
	// default, is no cap: a fault on a swapped-out anon or aobj page reads,
	// with one I/O, as much of its advice window as sits in adjoining swap
	// slots (pageout lays clusters out in VA order to that end). > 0 caps
	// the run at that many pages; 1 is one slot per I/O. File pageins do
	// not look at it. Kept for bench/uvmperf's ref.async_io row.
	PageinCluster int
	// AsyncWriteback makes the object writeback flights — Msync, vnode
	// recycling, last-unmap write-back (objwb.go) — asynchronous: dirty
	// pages are collected under the object lock, marked busy, and flushed
	// as contiguous-offset clusters through a per-backend bounded
	// in-flight window (vnode pages to the file, aobj pages to swap)
	// while the submitter merely waits on the completion. Off, Msync
	// writes the same clusters synchronously, on the caller's clock —
	// which keeps single-threaded runs byte-deterministic — and recycle
	// and last-unmap queue their pages through the buffer cache.
	AsyncWriteback bool
	// WritebackCluster caps pages per object writeback I/O — the longest
	// run of consecutive object pages any flight writes with one command,
	// synchronous or asynchronous, flush or pageout. 0 means maxCluster
	// (64).
	WritebackCluster int
}

// DefaultConfig returns UVM's standard tuning: every switch off.
func DefaultConfig() Config { return Config{} }

// System is a booted UVM instance.
type System struct {
	mach *vmapi.Machine
	cfg  Config

	kmap      *vmMap
	kentryUse atomic.Int32

	// layoutIDs numbers amaps and aobjs in creation order (layoutKey.id).
	layoutIDs atomic.Uint32
	// maps numbers maps in creation order; it deals out their homes.
	maps atomic.Uint32

	// vnObjMu serialises vnode<->uvm_object identity: the create-or-ref
	// decision in vnodeObject must be atomic across concurrent mappers
	// of the same file.
	//uvm:lock vnobj
	vnObjMu sync.Mutex

	//uvm:lock system
	procMu sync.Mutex
	procs  map[*Process]struct{}

	// lookaheadGate, when non-nil, runs between lookahead's candidate
	// collection and the batched pmap entry, with the candidates' owner
	// locks held. Test hook: the lookahead-vs-reclaim race test uses it
	// to run a reclaim pass inside the batching window.
	lookaheadGate func()

	// msyncGate, when non-nil, runs after a waited-for flush has issued
	// its flight (object lock released; if asynchronous, pages busy and
	// I/O in flight) and before the submitter waits on it. Test hook for
	// the msync race tests. Must be set before the flush starts.
	msyncGate func()
	// wbGate, when non-nil, runs at the start of every asynchronous
	// clean-flight run completion, on the I/O goroutine. Test hook: the
	// msync race tests use it to hold completions while concurrent faults
	// and reclaim passes probe the busy pages.
	wbGate func()

	// Flight state (flight.go). flights counts the flights started and
	// not yet finished; it falls under flMu. flMu also guards every
	// flight's pending counter and result lists, flGen, which each flight
	// completion bumps before broadcasting flCond, and the reclaim pass's
	// state (reclaim.go): reclaiming while a pass runs, reclaimGen bumped
	// as each ends, and shutdown. Paths that find an object page busy,
	// waiters on one flight or on the pass, allocators out of evictable
	// pages and Shutdown all sleep on flCond.
	flights atomic.Int32
	//uvm:lock wbcond
	flMu       sync.Mutex
	flCond     *sync.Cond
	flGen      uint64
	reclaiming bool
	reclaimGen uint64
	shutdown   bool
}

// Boot boots UVM on machine m with default configuration.
func Boot(m *vmapi.Machine) vmapi.System { return BootConfig(m, DefaultConfig()) }

// BootConfig boots with an explicit configuration.
func BootConfig(m *vmapi.Machine, cfg Config) *System {
	s := &System{
		mach:  m,
		cfg:   cfg,
		procs: make(map[*Process]struct{}),
	}
	s.flCond = sync.NewCond(&s.flMu)
	s.kmap = s.newMap("kernel", param.KernelBase, param.KernelMax, true)

	// Kernel text, data, bss — always-wired segments. Because they are
	// always wired, UVM does not track per-range wiring in the kernel map
	// (§3.2); adjacent boot allocations merge.
	for _, seg := range []struct {
		pages int
		prot  param.Prot
	}{{300, param.ProtRX}, {80, param.ProtRW}, {120, param.ProtRW}} {
		if _, err := s.kernelAlloc(seg.pages, seg.prot); err != nil {
			panic("uvm: kernel boot allocation failed: " + err.Error())
		}
	}

	if cfg.PageoutWindow > 0 {
		m.Swap.SetAIOWindow(cfg.PageoutWindow)
	}
	return s
}

// swapRunMax returns how many of the n pages of a fault's window one
// swap-backed pagein may read: all of them, unless clustering is off or
// cfg.PageinCluster is lower.
func (s *System) swapRunMax(n int) int {
	if s.cfg.DisableClustering {
		return 1
	}
	if limit := s.cfg.PageinCluster; limit > 0 && limit < n {
		return limit
	}
	return n
}

// Shutdown implements vmapi.System: from here on every reclaim pass is
// synchronous. It waits for a running pass to end and then for every
// flight still in the air — asynchronous pageouts and fire-and-forget
// object writebacks alike; Msync and recycle wait for their own — so no
// completion touches VM structures after Shutdown returns. The system
// remains usable, so shutdown order is forgiving. Idempotent.
func (s *System) Shutdown() {
	s.flMu.Lock()
	s.shutdown = true
	// A pass that started before the flag may still submit asynchronously.
	for gen := s.reclaimGen; s.reclaiming && s.reclaimGen == gen; {
		s.flCond.Wait()
	}
	for s.flights.Load() > 0 {
		s.flCond.Wait()
	}
	s.flMu.Unlock()
}

// Name implements vmapi.System.
func (s *System) Name() string { return "uvm" }

// Machine implements vmapi.System.
func (s *System) Machine() *vmapi.Machine { return s.mach }

// KernelAlloc implements vmapi.System: wired kernel allocations coalesce
// with their neighbour when attributes match, so boot-time subsystem
// allocations do not each consume a map entry.
func (s *System) KernelAlloc(npages int, prot param.Prot) (param.VAddr, error) {
	return s.kernelAlloc(npages, prot)
}

func (s *System) kernelAlloc(npages int, prot param.Prot) (param.VAddr, error) {
	s.kmap.lock()
	defer s.kmap.unlock()
	va, err := s.kmap.FindSpace(0, param.VSize(npages)*param.PageSize)
	if err != nil {
		return 0, err
	}
	e := s.allocEntry(s.kmap)
	e.Start, e.End = va, va+param.VAddr(npages)*param.PageSize
	e.prot, e.maxProt = prot, param.ProtRWX
	e.wired = 1
	s.kmap.insertOrMerge(e)
	return va, nil
}

// KernelMapEntries implements vmapi.System.
func (s *System) KernelMapEntries() int {
	s.kmap.mu.RLock()
	defer s.kmap.mu.RUnlock()
	return s.kmap.Len()
}

// TotalMapEntries implements vmapi.System.
func (s *System) TotalMapEntries() int {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	s.kmap.mu.RLock()
	total := s.kmap.Len()
	s.kmap.mu.RUnlock()
	//uvm:maporder-ok summing counts; order-independent
	for p := range s.procs {
		if p.vforked {
			continue // shares its parent's map; counting it would double
		}
		p.m.mu.RLock()
		total += p.m.Len()
		p.m.mu.RUnlock()
	}
	return total
}

// addProc registers a fully initialised process.
func (s *System) addProc(p *Process) {
	s.procMu.Lock()
	s.procs[p] = struct{}{}
	s.procMu.Unlock()
	s.mach.Stats.ProcCreated.Inc()
}

func (s *System) dropProc(p *Process) {
	s.procMu.Lock()
	delete(s.procs, p)
	s.procMu.Unlock()
	s.mach.Stats.ProcExited.Inc()
}
