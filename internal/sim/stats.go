package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Stats is the machine's event counters in one struct, as UVM keeps them
// in uvmexp: every counter is a Cell field below, declared once with the
// name the reports, vmstat and bench read (its `name` tag), and each
// layer bumps its field directly (Stats.Faults.Inc()). The name API —
// Get, Add, Counter, Snapshot, String — serves reports, bench and
// tests; a declared name resolves to its field through a plain map, and
// only a name declared nowhere falls through to a sync.Map.
//
// Counters are lock-free: the fault path and the page allocator bump
// them from many goroutines, and a Stats mutex would reintroduce a
// global serialisation point.
type Stats struct {
	// Both VM systems.
	Faults      Cell `name:"vm.faults"`
	FaultsRead  Cell `name:"vm.faults.read"`
	FaultsWrite Cell `name:"vm.faults.write"`
	PageIns     Cell `name:"vm.pageins"`  // pages brought in by any pager
	PageOuts    Cell `name:"vm.pageouts"` // pages written out by reclaim
	PagesCopied Cell `name:"vm.pages.copied"`
	PagesZeroed Cell `name:"vm.pages.zeroed"`

	// uvm: anons, amaps, map entries and the fault path.
	AnonAlloc       Cell `name:"uvm.anon.alloc"`
	AnonLive        Cell `name:"uvm.anon.live"`
	AmapAlloc       Cell `name:"uvm.amap.alloc"`
	AmapLive        Cell `name:"uvm.amap.live"`
	EntryAlloc      Cell `name:"uvm.mapentry.alloc"`
	EntryLive       Cell `name:"uvm.mapentry.live"`
	MapMerges       Cell `name:"uvm.map.merges"`
	LookaheadMapped Cell `name:"uvm.lookahead.mapped"`
	CowCopies       Cell `name:"uvm.cow.copies"`

	// uvm: clustered pagein (internal/uvm/pagein.go).
	AnonPageIns         Cell `name:"uvm.anon.pagein"`
	PageinClusters      Cell `name:"uvm.pagein.clusters"`       // clustered pagein I/Os
	PageinClustered     Cell `name:"uvm.pagein.clustered"`      // extra pages brought in by clustering
	AobjPageinClusters  Cell `name:"uvm.aobj.pagein.clusters"`  // clustered aobj pagein I/Os
	AobjPageinClustered Cell `name:"uvm.aobj.pagein.clustered"` // extra aobj pages per cluster ride

	// uvm: data movement, processes and objects.
	Loanouts         Cell `name:"uvm.loanouts"`
	LoanBroken       Cell `name:"uvm.loan.broken"`
	Transfers        Cell `name:"uvm.transfers"`
	MepExports       Cell `name:"uvm.mep.exports"`
	MepImports       Cell `name:"uvm.mep.imports"`
	ProcCreated      Cell `name:"uvm.proc.created"`
	ProcExited       Cell `name:"uvm.proc.exited"`
	Forks            Cell `name:"uvm.forks"`
	VForks           Cell `name:"uvm.vforks"`
	ShmAttach        Cell `name:"uvm.shm.attach"`
	VnodeObjCreated  Cell `name:"uvm.uobj.vnode.created"`
	VnodeObjRecycled Cell `name:"uvm.uobj.vnode.recycled"`
	AobjCreated      Cell `name:"uvm.uobj.aobj.created"`
	AobjDestroyed    Cell `name:"uvm.uobj.aobj.destroyed"`
	DevObjCreated    Cell `name:"uvm.uobj.dev.created"`

	// uvm: reclaim (internal/uvm/reclaim.go, flight.go). The names keep
	// the pagedaemon's prefix, which the bench reads: reclaim runs as one
	// single-flight pass on an allocating goroutine.
	PdFreed         Cell `name:"uvm.pdaemon.freed"`          // pages freed by reclaim
	PdClusters      Cell `name:"uvm.pdaemon.clusters"`       // clustered pageout I/Os
	PdReassigned    Cell `name:"uvm.pdaemon.reassigned"`     // swap slots reassigned
	PdRounds        Cell `name:"uvm.pdaemon.rounds"`         // single-flight reclaim passes run
	PdBlocked       Cell `name:"uvm.pdaemon.blocked"`        // allocators that waited on another allocator's pass
	PdDirect        Cell `name:"uvm.pdaemon.direct"`         // always 0: kept until the bench drops its row
	PdWaitNs        Cell `name:"uvm.pdaemon.wait_ns"`        // simulated ns allocators spent waiting on another's pass
	PdAsyncClusters Cell `name:"uvm.pdaemon.async.clusters"` // clusters submitted asynchronously
	PdAsyncPages    Cell `name:"uvm.pdaemon.async.pages"`    // pages riding async clusters
	PdAsyncErrors   Cell `name:"uvm.pdaemon.async.errors"`   // async writes that failed

	// uvm: object writeback (internal/uvm/objwb.go) — msync, aobj and
	// vnode-recycle flushes pushed through the clustered write engine.
	ObjWbClusters Cell `name:"uvm.objwb.clusters"` // writeback cluster I/Os submitted
	ObjWbPages    Cell `name:"uvm.objwb.pages"`    // pages pushed through the pipeline
	ObjWbErrors   Cell `name:"uvm.objwb.errors"`   // writeback I/Os that failed
	ObjWbWaits    Cell `name:"uvm.objwb.waits"`    // paths that slept on a busy object page

	// bsdvm: the baseline's objects, chains and maps.
	BsdChainWalk         Cell `name:"bsdvm.chainwalk"`
	BsdObjCacheEvictions Cell `name:"bsdvm.objcache.evictions"`
	BsdObjCachePeak      Cell `name:"bsdvm.objcache.peak"`
	BsdCollapseScan      Cell `name:"bsdvm.collapse.scan"`
	BsdCollapseRedundant Cell `name:"bsdvm.collapse.redundant_pages"`
	BsdCollapseMerged    Cell `name:"bsdvm.collapse.merged"`
	BsdCollapseBypassed  Cell `name:"bsdvm.collapse.bypassed"`
	BsdObjectAlloc       Cell `name:"bsdvm.object.alloc"`
	BsdObjectLive        Cell `name:"bsdvm.object.live"`
	BsdShadowAlloc       Cell `name:"bsdvm.shadow.alloc"`
	BsdPagerAlloc        Cell `name:"bsdvm.pager.alloc"`
	BsdPagedaemonFreed   Cell `name:"bsdvm.pagedaemon.freed"`
	BsdEntryAlloc        Cell `name:"bsdvm.mapentry.alloc"`
	BsdEntryLive         Cell `name:"bsdvm.mapentry.live"`
	BsdProcCreated       Cell `name:"bsdvm.proc.created"`
	BsdProcExited        Cell `name:"bsdvm.proc.exited"`
	BsdForks             Cell `name:"bsdvm.forks"`
	BsdVForks            Cell `name:"bsdvm.vforks"`
	BsdShmAttach         Cell `name:"bsdvm.shm.attach"`

	// phys: the page allocator. AllocContended/AllocAcquires is the
	// allocation-lock contention — on the global pool's queue shards, or
	// on the per-CPU magazines when free-page caches are enabled.
	AllocAcquires  Cell `name:"phys.alloc.acquires"`  // alloc-path lock acquisitions (shard or magazine)
	AllocContended Cell `name:"phys.alloc.contended"` // acquisitions that found the lock held
	AllocHits      Cell `name:"phys.alloc.hits"`      // allocations served from a warm magazine
	AllocRefills   Cell `name:"phys.alloc.refills"`   // magazine refills from the global pool
	AllocDrains    Cell `name:"phys.alloc.drains"`    // over-full magazine drains to the global pool
	AllocSteals    Cell `name:"phys.alloc.steals"`    // refills that raided sibling magazines (pool dry)
	AllocReaps     Cell `name:"phys.alloc.reaps"`     // whole-magazine reaps back to the pool (reclaim)

	// pmap: the sharded reverse map. PVContended/PVAcquires is the fault
	// path's pv-lock contention.
	PVAcquires         Cell `name:"pmap.pv.acquires"`          // pv bucket lock acquisitions
	PVContended        Cell `name:"pmap.pv.contended"`         // acquisitions that found the bucket held
	PVBatches          Cell `name:"pmap.pv.batch.enters"`      // Pmap.EnterBatch calls
	PVBatchPages       Cell `name:"pmap.pv.batch.pages"`       // translations entered via EnterBatch
	PVBatchRemoves     Cell `name:"pmap.pv.batch.removes"`     // Pmap.RemoveBatch calls
	PVBatchRemovePages Cell `name:"pmap.pv.batch.removepages"` // translations removed via RemoveBatch

	// disk: commands, transfers and faults.
	DiskReads          Cell `name:"disk.reads"`
	DiskWrites         Cell `name:"disk.writes"`
	DiskSeeks          Cell `name:"disk.seeks"`
	DiskPagesRead      Cell `name:"disk.pages.read"`
	DiskPagesWritten   Cell `name:"disk.pages.written"`
	DiskWritesDeferred Cell `name:"disk.writes.deferred"` // deferred (overlapped) write commands
	DiskDeferredNs     Cell `name:"disk.deferred_ns"`     // device-busy time of deferred I/O
	DiskErrors         Cell `name:"disk.errors"`
	DiskDeaths         Cell `name:"disk.deaths"`

	// swap.
	SwapSlotsLive Cell `name:"swap.slots.live"`
	SwapIOs       Cell `name:"swap.ios"`
	SwapAIOWrites Cell `name:"swap.aio.writes"` // async cluster writes submitted
	SwapAIOPages  Cell `name:"swap.aio.pages"`  // pages carried by async writes

	// vfs.
	VFSAsyncWrites Cell `name:"vfs.asyncwrites"`
	VFSAIOWrites   Cell `name:"vfs.aio.writes"`
	VFSAIOPages    Cell `name:"vfs.aio.pages"`
	VFSRecycles    Cell `name:"vfs.recycles"`

	named map[string]*Cell // every declared name -> its field, built by NewStats
	other sync.Map         // string -> *Cell: names declared nowhere above
}

// Cell is one counter, alone on its cache line: counters are bumped from
// every core, and two counters on one line bumped by different cores
// would keep taking the line from each other.
type Cell struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// Inc increments the counter by one.
func (c *Cell) Inc() { c.n.Add(1) }

// Add increments the counter by delta (delta may be negative for
// level-style gauges such as "current map entries").
func (c *Cell) Add(delta int64) { c.n.Add(delta) }

// Max raises the counter to v if v is greater than its current value.
// Used for high-water marks.
func (c *Cell) Max(v int64) {
	for {
		cur := c.n.Load()
		if v <= cur || c.n.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the counter's current value.
func (c *Cell) Load() int64 { return c.n.Load() }

// NewStats returns a zeroed counter set with its declared names resolved.
func NewStats() *Stats {
	s := &Stats{named: make(map[string]*Cell)}
	v := reflect.ValueOf(s).Elem()
	for i := range v.NumField() {
		if name := v.Type().Field(i).Tag.Get("name"); name != "" {
			s.named[name] = v.Field(i).Addr().Interface().(*Cell)
		}
	}
	return s
}

// Counter returns the cell named name: a declared field, or a cell
// created on first use for a name declared nowhere.
func (s *Stats) Counter(name string) *Cell {
	if c, ok := s.named[name]; ok {
		return c
	}
	v, ok := s.other.Load(name)
	if !ok {
		v, _ = s.other.LoadOrStore(name, new(Cell))
	}
	return v.(*Cell)
}

// Add increments counter name by delta.
func (s *Stats) Add(name string, delta int64) { s.Counter(name).Add(delta) }

// Get returns the current value of counter name (zero if never touched).
func (s *Stats) Get(name string) int64 {
	if c, ok := s.named[name]; ok {
		return c.Load()
	}
	if v, ok := s.other.Load(name); ok {
		return v.(*Cell).Load()
	}
	return 0
}

// Snapshot returns a copy of every counter that does not read 0; a diff
// of two snapshots reads an absent name as 0.
func (s *Stats) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	put := func(name string, c *Cell) {
		if n := c.Load(); n != 0 {
			out[name] = n
		}
	}
	//uvm:maporder-ok fills a map
	for name, c := range s.named {
		put(name, c)
	}
	s.other.Range(func(k, v any) bool {
		put(k.(string), v.(*Cell))
		return true
	})
	return out
}

// String renders the counters that do not read 0, sorted by name, one
// per line.
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

// The names bench, the experiments and tests read, each the `name` tag
// of the Stats field it mirrors.
const (
	CtrFaults             = "vm.faults"
	CtrFaultsRead         = "vm.faults.read"
	CtrFaultsWrite        = "vm.faults.write"
	CtrPageIns            = "vm.pageins"
	CtrPageOuts           = "vm.pageouts"
	CtrPagesCopied        = "vm.pages.copied"
	CtrPagesZeroed        = "vm.pages.zeroed"
	CtrChainWalk          = "bsdvm.chainwalk"
	CtrDiskReads          = "disk.reads"
	CtrDiskWrites         = "disk.writes"
	CtrDiskSeeks          = "disk.seeks"
	CtrDiskPagesRead      = "disk.pages.read"
	CtrDiskPagesWrite     = "disk.pages.written"
	CtrDiskDeferredNs     = "disk.deferred_ns"
	CtrDiskWritesDeferred = "disk.writes.deferred"
	CtrSwapSlotsLive      = "swap.slots.live"
	CtrSwapIOs            = "swap.ios"
	CtrSwapAIOWrites      = "swap.aio.writes"
	CtrSwapAIOPages       = "swap.aio.pages"
	CtrLoanouts           = "uvm.loanouts"
	CtrTransfers          = "uvm.transfers"

	CtrPdFreed         = "uvm.pdaemon.freed"
	CtrPdClusters      = "uvm.pdaemon.clusters"
	CtrPdReassigned    = "uvm.pdaemon.reassigned"
	CtrPdRounds        = "uvm.pdaemon.rounds"
	CtrPdBlocked       = "uvm.pdaemon.blocked"
	CtrPdDirect        = "uvm.pdaemon.direct"
	CtrPdWaitNs        = "uvm.pdaemon.wait_ns"
	CtrPdAsyncClusters = "uvm.pdaemon.async.clusters"
	CtrPdAsyncPages    = "uvm.pdaemon.async.pages"
	CtrPdAsyncErrors   = "uvm.pdaemon.async.errors"
	CtrPageinClusters  = "uvm.pagein.clusters"
	CtrPageinClustered = "uvm.pagein.clustered"

	CtrPVAcquires         = "pmap.pv.acquires"
	CtrPVContended        = "pmap.pv.contended"
	CtrPVBatches          = "pmap.pv.batch.enters"
	CtrPVBatchPages       = "pmap.pv.batch.pages"
	CtrPVBatchRemoves     = "pmap.pv.batch.removes"
	CtrPVBatchRemovePages = "pmap.pv.batch.removepages"

	CtrObjWbClusters = "uvm.objwb.clusters"
	CtrObjWbPages    = "uvm.objwb.pages"
	CtrObjWbErrors   = "uvm.objwb.errors"
	CtrObjWbWaits    = "uvm.objwb.waits"

	CtrAobjPageinClusters  = "uvm.aobj.pagein.clusters"
	CtrAobjPageinClustered = "uvm.aobj.pagein.clustered"

	CtrAllocAcquires  = "phys.alloc.acquires"
	CtrAllocContended = "phys.alloc.contended"
	CtrAllocHits      = "phys.alloc.hits"
	CtrAllocRefills   = "phys.alloc.refills"
	CtrAllocDrains    = "phys.alloc.drains"
	CtrAllocSteals    = "phys.alloc.steals"
	CtrAllocReaps     = "phys.alloc.reaps"
)
