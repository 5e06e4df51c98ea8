package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Stats is a set of named monotonic counters. Every subsystem records its
// activity here (faults taken, pages copied, disk operations issued, map
// entries allocated, ...) so experiments can report raw operation counts
// alongside simulated times.
//
// Counters are lock-free: each name maps to an atomically updated cell,
// so hot paths (the fault handler, the page allocator) can bump counters
// from many goroutines without serialising on a shared mutex. This is
// load-bearing for the fine-grained-locking fault path — a Stats mutex
// would reintroduce a global serialisation point.
type Stats struct {
	m sync.Map // string -> *cell, updated with atomics
}

// cell is one counter, alone on its cache line: counters are bumped from
// every core, and 8-byte cells would be packed two to a 16-byte block by
// Go's tiny allocator, so two counters bumped by different cores would
// keep taking one line from each other.
type cell struct {
	n int64
	_ [cacheLine - 8]byte
}

// NewStats returns an empty counter set.
func NewStats() *Stats { return &Stats{} }

// cell returns the counter cell for name, creating it on first use.
func (s *Stats) cell(name string) *int64 {
	if v, ok := s.m.Load(name); ok {
		return &v.(*cell).n
	}
	v, _ := s.m.LoadOrStore(name, new(cell))
	return &v.(*cell).n
}

// Add increments counter name by delta (delta may be negative for
// level-style gauges such as "current map entries").
func (s *Stats) Add(name string, delta int64) {
	atomic.AddInt64(s.cell(name), delta)
}

// Inc increments counter name by one.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Get returns the current value of the counter (zero if never touched).
func (s *Stats) Get(name string) int64 {
	if v, ok := s.m.Load(name); ok {
		return atomic.LoadInt64(&v.(*cell).n)
	}
	return 0
}

// Max raises counter name to v if v is greater than the current value.
// Used for high-water marks.
func (s *Stats) Max(name string, v int64) {
	cv, ok := s.m.Load(name)
	if !ok {
		if v <= 0 {
			return // match map semantics: no key is created for a no-op Max
		}
		cv, _ = s.m.LoadOrStore(name, new(cell))
	}
	Counter{v: &cv.(*cell).n}.Max(v)
}

// Counter is a cached handle to one counter cell, for hot paths that bump
// the same counter on every operation and cannot afford the name lookup.
// A handle taken before Stats.Reset keeps writing to the old (discarded)
// generation of the cell; like Reset itself, handles are meant to be
// taken once at subsystem construction, not interleaved with resets.
type Counter struct{ v *int64 }

// Counter returns a cached handle for name, creating the cell on first
// use.
func (s *Stats) Counter(name string) Counter { return Counter{v: s.cell(name)} }

// Inc increments the counter by one.
func (c Counter) Inc() { atomic.AddInt64(c.v, 1) }

// Add increments the counter by delta.
func (c Counter) Add(delta int64) { atomic.AddInt64(c.v, delta) }

// Max raises the counter to v if v is greater than its current value.
func (c Counter) Max(v int64) {
	for {
		cur := atomic.LoadInt64(c.v)
		if v <= cur || atomic.CompareAndSwapInt64(c.v, cur, v) {
			return
		}
	}
}

// Snapshot returns a copy of all counters.
func (s *Stats) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	s.m.Range(func(k, v any) bool {
		out[k.(string)] = atomic.LoadInt64(&v.(*cell).n)
		return true
	})
	return out
}

// Reset clears every counter. Counter cells handed out concurrently with
// a Reset may apply their update to the old generation; Reset is meant
// for test/experiment setup, not for use while workloads are running.
func (s *Stats) Reset() {
	s.m.Range(func(k, _ any) bool {
		s.m.Delete(k)
		return true
	})
}

// String renders the counters sorted by name, one per line.
func (s *Stats) String() string {
	snap := s.Snapshot()
	keys := make([]string, 0, len(snap))
	//uvm:maporder-ok keys are sorted below before formatting
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-32s %12d\n", k, snap[k])
	}
	return b.String()
}

// Well-known counter names shared across packages. Subsystems may also
// define their own ad-hoc names; these constants exist so the experiment
// drivers and tests do not depend on string literals scattered around.
const (
	CtrFaults          = "vm.faults"
	CtrFaultsRead      = "vm.faults.read"
	CtrFaultsWrite     = "vm.faults.write"
	CtrPageIns         = "vm.pageins"
	CtrPageOuts        = "vm.pageouts"
	CtrPagesCopied     = "vm.pages.copied"
	CtrPagesZeroed     = "vm.pages.zeroed"
	CtrMapEntriesLive  = "vm.mapentries.live"
	CtrMapEntriesTotal = "vm.mapentries.total"
	CtrObjectsLive     = "vm.objects.live"
	CtrAnonsLive       = "vm.anons.live"
	CtrAmapsLive       = "vm.amaps.live"
	CtrCollapses       = "bsdvm.collapses"
	CtrChainWalk       = "bsdvm.chainwalk"
	CtrDiskReads       = "disk.reads"
	CtrDiskWrites      = "disk.writes"
	CtrDiskSeeks       = "disk.seeks"
	CtrDiskPagesRead   = "disk.pages.read"
	CtrDiskPagesWrite  = "disk.pages.written"
	CtrDiskDeferredNs  = "disk.deferred_ns" // device-busy time of deferred (overlapped) I/O
	// CtrDiskWritesDeferred counts deferred (overlapped) write commands;
	// CtrDiskDeferredNs / CtrDiskWritesDeferred is the per-completion
	// device-busy latency of an overlapped write.
	CtrDiskWritesDeferred = "disk.writes.deferred"
	CtrSwapSlotsLive      = "swap.slots.live"
	CtrSwapIOs            = "swap.ios"

	// Asynchronous swap I/O counters (internal/swap/aio.go).
	CtrSwapAIOWrites = "swap.aio.writes" // async cluster writes submitted
	CtrSwapAIOPages  = "swap.aio.pages"  // pages carried by async writes
	CtrLoanouts      = "uvm.loanouts"
	CtrTransfers     = "uvm.transfers"

	// Asynchronous pagedaemon counters (internal/uvm/pdaemon.go).
	CtrPdFreed      = "uvm.pdaemon.freed"      // pages freed by reclaim
	CtrPdClusters   = "uvm.pdaemon.clusters"   // clustered pageout I/Os
	CtrPdReassigned = "uvm.pdaemon.reassigned" // swap slots reassigned
	CtrPdRounds     = "uvm.pdaemon.rounds"     // daemon reclaim rounds
	CtrPdWakeups    = "uvm.pdaemon.wakeups"    // doorbell rings delivered
	CtrPdBlocked    = "uvm.pdaemon.blocked"    // allocators that had to wait
	CtrPdDirect     = "uvm.pdaemon.direct"     // direct-reclaim fallbacks
	CtrPdWaitNs     = "uvm.pdaemon.wait_ns"    // simulated ns allocators spent blocked on free pages

	// Reclaim I/O pipeline counters (async pageout, clustered pagein —
	// internal/uvm/pdaemon.go, pagein.go).
	CtrPdAsyncClusters = "uvm.pdaemon.async.clusters" // clusters submitted asynchronously
	CtrPdAsyncPages    = "uvm.pdaemon.async.pages"    // pages riding async clusters
	CtrPdAsyncErrors   = "uvm.pdaemon.async.errors"   // async writes that failed
	CtrPageinClusters  = "uvm.pagein.clusters"        // clustered pagein I/Os
	CtrPageinClustered = "uvm.pagein.clustered"       // extra pages brought in by clustering

	// Sharded pmap reverse-map (pv) counters (internal/pmap). The
	// contended/acquires ratio is the fault path's pv-lock contention
	// (bench/uvmperf's pmap.pv_contended_ratio).
	CtrPVAcquires   = "pmap.pv.acquires"     // pv bucket lock acquisitions
	CtrPVContended  = "pmap.pv.contended"    // acquisitions that found the bucket held
	CtrPVBatches    = "pmap.pv.batch.enters" // Pmap.EnterBatch calls
	CtrPVBatchPages = "pmap.pv.batch.pages"  // translations entered via EnterBatch

	// Batched pmap teardown counters (Pmap.RemoveBatch, used by UVM's
	// two-phase unmap and address-space exit).
	CtrPVBatchRemoves     = "pmap.pv.batch.removes"     // Pmap.RemoveBatch calls
	CtrPVBatchRemovePages = "pmap.pv.batch.removepages" // translations removed via RemoveBatch

	// Object writeback pipeline counters (internal/uvm/objwb.go): msync,
	// aobj and vnode-recycle flushes pushed through the asynchronous
	// clustered write engine.
	CtrObjWbClusters = "uvm.objwb.clusters" // writeback cluster I/Os submitted
	CtrObjWbPages    = "uvm.objwb.pages"    // pages pushed through the pipeline
	CtrObjWbErrors   = "uvm.objwb.errors"   // writeback I/Os that failed
	CtrObjWbWaits    = "uvm.objwb.waits"    // paths that slept on a busy object page

	// Clustered aobj pagein counters (internal/uvm/pagein.go): aobj
	// faults that dragged slot-adjacent neighbour pages in with one I/O.
	CtrAobjPageinClusters  = "uvm.aobj.pagein.clusters"  // clustered aobj pagein I/Os
	CtrAobjPageinClustered = "uvm.aobj.pagein.clustered" // extra aobj pages per cluster ride

	// Page-allocator counters (internal/phys/alloccache.go). The
	// contended/acquires ratio is the fault path's allocation-lock
	// contention — on the global pool's queue shards in single-pool mode,
	// on the per-CPU magazines when free-page caches are enabled
	// (bench/uvmperf's phys.alloc_contended_ratio).
	CtrAllocAcquires  = "phys.alloc.acquires"  // alloc-path lock acquisitions (shard or magazine)
	CtrAllocContended = "phys.alloc.contended" // acquisitions that found the lock held
	CtrAllocHits      = "phys.alloc.hits"      // allocations served from a warm magazine
	CtrAllocRefills   = "phys.alloc.refills"   // magazine refills from the global pool
	CtrAllocDrains    = "phys.alloc.drains"    // over-full magazine drains to the global pool
	CtrAllocSteals    = "phys.alloc.steals"    // refills that raided sibling magazines (pool dry)
	CtrAllocReaps     = "phys.alloc.reaps"     // whole-magazine reaps back to the pool (reclaim)
)
