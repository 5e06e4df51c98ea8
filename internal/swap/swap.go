// Package swap implements the swap partition: a slot allocator over one
// or more simulated disks plus page-granular I/O.
//
// Two allocation modes exist because the two VM systems place pages on
// swap differently (paper §6). BSD VM assigns a page's swap location once,
// inside a fixed per-object swap block, so its pageouts land wherever each
// page's slot happens to be — one I/O per page. UVM treats anonymous
// memory's backing location as reassignable: the pagedaemon calls
// AllocContig to get a fresh run of slots for a whole dirty cluster, frees
// the pages' old slots, and writes the cluster with a single I/O.
//
// # Concurrency
//
// The allocator is sharded so that it is never a serialisation point on
// the pageout path: each device's slot space is split into contiguous
// shards, each with its own mutex, free-slot bitmap and next-fit hint.
// Concurrent slot traffic — the reclaim pass's pageout, object
// writeback and pageins freeing slots — lands on different shards via a
// round-robin cursor and proceeds without contention. The global in-use
// count is a lock-free atomic, so capacity checks and accounting never
// take a lock at all. Devices small enough for a single shard (everything
// under minShardSlots×2) behave exactly like the classic single-mutex
// next-fit allocator, which keeps small deterministic simulations
// bit-for-bit stable.
//
// A cluster never spans a shard (and therefore never spans a device): a
// cluster must go out in one I/O to one disk, and shards are sized far
// above the largest pageout cluster.
//
// # Asynchronous writes
//
// Cluster writes can also be submitted asynchronously (WriteClusterAsync,
// aio.go): each device admits a bounded in-flight window of writes whose
// completions are delivered by callback, which is how the pagedaemon
// overlaps pageout I/O with its next reclaim scan. ReadCluster is the
// read-side mirror of WriteCluster, used by clustered pagein.
package swap

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"uvm/internal/disk"
	"uvm/internal/sim"
)

// ErrNoSwap is returned when the partition is full. A real kernel
// deadlocks or kills processes at this point; the simulation surfaces it
// (this is how the BSD VM swap-leak test observes the leak).
var ErrNoSwap = errors.New("swap: out of swap space")

// NoSlot marks "no swap location assigned".
const NoSlot int64 = -1

const (
	// maxShardsPerDevice bounds the shard count: enough to spread
	// concurrent reclaim, few enough that a full-device scan stays cheap.
	maxShardsPerDevice = 8
	// minShardSlots is the smallest shard worth splitting for. It is far
	// above the largest pageout cluster (64 pages), so sharding never
	// makes a satisfiable AllocContig fail.
	minShardSlots = 1024
)

// shard is one contiguous slice of a device's slot space with its own
// lock, bitmap and next-fit hint.
type shard struct {
	base int64 // global slot number of this shard's first slot
	size int64

	//uvm:lock swap
	mu    sync.Mutex
	inUse []bool
	nFree int64
	hint  int64 // next-fit start point, relative to the shard
}

// alloc next-fit scans the shard for a run of n free slots and returns
// the global slot number of the first.
func (sh *shard) alloc(n int64) (int64, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n > sh.size || sh.nFree < n {
		return NoSlot, false
	}
	start := sh.hint
	if start+n > sh.size {
		start = 0
	}
	wrapped := false
	for {
		if start+n > sh.size {
			if wrapped {
				return NoSlot, false
			}
			wrapped = true
			start = 0
			continue
		}
		run := int64(0)
		for run < n && !sh.inUse[start+run] {
			run++
		}
		if run == n {
			for i := int64(0); i < n; i++ {
				sh.inUse[start+i] = true
			}
			sh.nFree -= n
			sh.hint = start + n
			return sh.base + start, true
		}
		start += run + 1
		if wrapped && start >= sh.size {
			return NoSlot, false
		}
	}
}

// freeRange releases n consecutive slots starting at offset off within
// the shard, under one lock acquisition.
func (sh *shard) freeRange(off, n int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := int64(0); i < n; i++ {
		if !sh.inUse[off+i] {
			panic(fmt.Sprintf("swap: double free of slot %d", sh.base+off+i))
		}
		sh.inUse[off+i] = false
	}
	sh.nFree += n
}

// device is one configured swap device: a slice [base, base+size) of the
// global slot space backed by a disk, split into shards.
type device struct {
	dev      *disk.Disk
	priority int // lower value = preferred, as in swapctl(8)
	base     int64
	size     int64

	shards    []*shard
	shardSize int64         // size of every shard but the last
	cursor    atomic.Uint64 // round-robin start shard for allocations

	// writer is the device's bounded-window asynchronous write engine
	// (see aio.go), created with the device.
	writer *disk.AsyncWriter
}

// shardCount picks the number of shards for a device of the given size:
// the largest power of two up to maxShardsPerDevice that keeps every
// shard at least minShardSlots long.
func shardCount(size int64) int {
	n := 1
	for n < maxShardsPerDevice && size/int64(n*2) >= minShardSlots {
		n *= 2
	}
	return n
}

func newDevice(dev *disk.Disk, priority int, base int64) *device {
	size := dev.Blocks()
	d := &device{dev: dev, priority: priority, base: base, size: size,
		writer: disk.NewAsyncWriter(dev, 0)}
	k := shardCount(size)
	d.shardSize = size / int64(k)
	for i := 0; i < k; i++ {
		lo := int64(i) * d.shardSize
		hi := lo + d.shardSize
		if i == k-1 {
			hi = size // last shard absorbs the remainder
		}
		d.shards = append(d.shards, &shard{
			base:  base + lo,
			size:  hi - lo,
			inUse: make([]bool, hi-lo),
			nFree: hi - lo,
		})
	}
	return d
}

// shardFor returns the shard owning a slot local offset off.
func (d *device) shardFor(off int64) *shard {
	idx := off / d.shardSize
	if idx >= int64(len(d.shards)) {
		idx = int64(len(d.shards)) - 1
	}
	return d.shards[idx]
}

// alloc finds a run of n slots somewhere on the device. Multi-shard
// devices rotate the starting shard so concurrent allocators spread out;
// single-shard devices keep the classic deterministic next-fit order.
func (d *device) alloc(n int64) (int64, bool) {
	k := len(d.shards)
	start := 0
	if k > 1 {
		start = int(d.cursor.Add(1)-1) % k
	}
	for i := 0; i < k; i++ {
		if slot, ok := d.shards[(start+i)%k].alloc(n); ok {
			return slot, true
		}
	}
	return NoSlot, false
}

// topo is an immutable snapshot of the configured devices. Allocation,
// free and I/O paths read it without locking; AddDevice publishes a new
// snapshot.
type topo struct {
	devices []*device // configuration order (ascending base)
	byPrio  []*device // stable-sorted by priority
}

// Swap is the swap subsystem: one or more prioritised swap devices
// (swapctl -a style) behind a single global slot space.
type Swap struct {
	clock *sim.Clock
	costs *sim.Costs
	stats *sim.Stats

	// mu serialises AddDevice only.
	//uvm:lock swap
	mu   sync.Mutex
	devs atomic.Pointer[topo]

	// Cached handles for the per-allocation live-slot gauge and the
	// per-command I/O count, resolved once at construction.
	ctrSlotsLive sim.Counter
	ctrIOs       sim.Counter

	nSlots atomic.Int64
	nInUse atomic.Int64 // lock-free in-use count across all shards

	// aioWindow is the configured per-device async-write window (see
	// aio.go), so a device added later starts with it.
	aioWindow atomic.Int32
}

// New creates a swap subsystem with one device of priority 0 spanning dev.
func New(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, dev *disk.Disk) *Swap {
	s := &Swap{clock: clock, costs: costs, stats: stats}
	s.ctrSlotsLive = stats.Counter(sim.CtrSwapSlotsLive)
	s.ctrIOs = stats.Counter(sim.CtrSwapIOs)
	s.devs.Store(&topo{})
	s.aioWindow.Store(DefaultAIOWindow)
	s.AddDevice(dev, 0)
	return s
}

// AddDevice configures an additional swap device (swapctl -a). Lower
// priority values are preferred; allocation spills to higher values when
// preferred devices are full. Slot numbers already handed out remain
// valid.
func (s *Swap) AddDevice(dev *disk.Disk, priority int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.devs.Load()
	d := newDevice(dev, priority, s.nSlots.Load())

	t := &topo{
		devices: append(append([]*device(nil), old.devices...), d),
		byPrio:  append(append([]*device(nil), old.byPrio...), d),
	}
	// Stable insertion sort by priority (device count is tiny).
	for i := 1; i < len(t.byPrio); i++ {
		for j := i; j > 0 && t.byPrio[j].priority < t.byPrio[j-1].priority; j-- {
			t.byPrio[j], t.byPrio[j-1] = t.byPrio[j-1], t.byPrio[j]
		}
	}
	// Grow the slot space before publishing the topology: a slot can only
	// be handed out after the topo store, and by then every bounds check
	// (Free, InUse) already covers it. The reverse order would open a
	// window where a freshly allocated slot looks out-of-range.
	s.nSlots.Add(d.size)
	s.devs.Store(t)
	// After the publish, so a SetAIOWindow racing this call either finds
	// the device in the topology or has already stored the window read here.
	d.writer.SetWindow(int(s.aioWindow.Load()))
	s.stats.Inc("swap.devices")
	s.stats.Add("swap.shards", int64(len(d.shards)))
}

// Devices returns the number of configured swap devices.
func (s *Swap) Devices() int { return len(s.devs.Load().devices) }

// Shards returns the total shard count across all devices (test/debug
// helper).
func (s *Swap) Shards() int {
	n := 0
	for _, d := range s.devs.Load().devices {
		n += len(d.shards)
	}
	return n
}

// deviceFor returns the device owning a global slot.
func (s *Swap) deviceFor(slot int64) *device {
	for _, d := range s.devs.Load().devices {
		if slot >= d.base && slot < d.base+d.size {
			return d
		}
	}
	panic(fmt.Sprintf("swap: slot %d outside every device", slot))
}

// Slots returns the total slot count across all devices.
func (s *Swap) Slots() int64 { return s.nSlots.Load() }

// SlotsInUse returns how many slots are currently allocated.
func (s *Swap) SlotsInUse() int { return int(s.nInUse.Load()) }

// Alloc reserves a single slot.
func (s *Swap) Alloc() (int64, error) {
	slots, err := s.AllocContig(1)
	if err != nil {
		return NoSlot, err
	}
	return slots, nil
}

// AllocContig reserves n contiguous slots and returns the first. The run
// never spans shards or devices (a cluster must go out in one I/O to one
// disk); devices are tried in priority order, shards round-robin within a
// device, each with a next-fit scan. Contiguity is what lets UVM page a
// whole cluster out in one operation.
//
// A device whose disk has died (disk.Disk.Dead) is retired from the
// scan: new allocations stop landing on it, so pageout falls over to the
// surviving devices instead of queueing I/O that can only fail. Slots
// already on the dead device stay allocated — their pagein errors are
// the faulting process' problem, not the allocator's.
func (s *Swap) AllocContig(n int) (int64, error) {
	if n <= 0 {
		return NoSlot, fmt.Errorf("swap: bad cluster size %d", n)
	}
	s.clock.ChargeN(n, s.costs.SwapSlotAlloc)
	if s.nInUse.Load()+int64(n) > s.nSlots.Load() {
		return NoSlot, ErrNoSwap
	}
	for _, d := range s.devs.Load().byPrio {
		if d.dev.Dead() {
			continue
		}
		if slot, ok := d.alloc(int64(n)); ok {
			s.nInUse.Add(int64(n))
			s.ctrSlotsLive.Add(int64(n))
			return slot, nil
		}
	}
	return NoSlot, ErrNoSwap
}

// Free releases one slot.
func (s *Swap) Free(slot int64) { s.FreeRange(slot, 1) }

// FreeRange releases n consecutive slots starting at slot. The range is
// freed one shard-resident run at a time, each under a single lock
// acquisition — a pageout cluster, which never spans a shard, frees
// atomically.
func (s *Swap) FreeRange(slot int64, n int) {
	if slot == NoSlot {
		return
	}
	if slot < 0 || slot+int64(n) > s.nSlots.Load() {
		panic(fmt.Sprintf("swap: freeing out-of-range slots [%d,%d)", slot, slot+int64(n)))
	}
	for left := int64(n); left > 0; {
		d := s.deviceFor(slot)
		sh := d.shardFor(slot - d.base)
		run := sh.base + sh.size - slot // slots of the range inside this shard
		if run > left {
			run = left
		}
		sh.freeRange(slot-sh.base, run)
		slot += run
		left -= run
	}
	s.nInUse.Add(-int64(n))
	s.ctrSlotsLive.Add(-int64(n))
}

// ReadSlot pages a single slot into buf.
func (s *Swap) ReadSlot(slot int64, buf []byte) error {
	s.ctrIOs.Inc()
	d := s.deviceFor(slot)
	return d.dev.ReadPages(slot-d.base, [][]byte{buf})
}

// ReadCluster pages len(bufs) contiguous slots starting at start in with a
// single I/O operation — the read-side mirror of WriteCluster, used by
// clustered pagein. The run must lie within one device; callers clamp
// their window with DeviceBounds first.
func (s *Swap) ReadCluster(start int64, bufs [][]byte) error {
	s.ctrIOs.Inc()
	d := s.deviceFor(start)
	if start-d.base+int64(len(bufs)) > d.size {
		return fmt.Errorf("swap: read cluster at %d spans devices", start)
	}
	return d.dev.ReadPages(start-d.base, bufs)
}

// DeviceBounds returns the global slot range [lo, hi) of the device owning
// slot. Cluster I/O never crosses a device (one I/O goes to one disk), so
// pagein windows are clamped to these bounds.
func (s *Swap) DeviceBounds(slot int64) (lo, hi int64) {
	d := s.deviceFor(slot)
	return d.base, d.base + d.size
}

// WriteSlot pages buf out to a single slot.
func (s *Swap) WriteSlot(slot int64, buf []byte) error {
	s.ctrIOs.Inc()
	d := s.deviceFor(slot)
	return d.dev.WritePages(slot-d.base, [][]byte{buf})
}

// WriteCluster pages a contiguous cluster out with a single I/O
// operation. The cluster always lies within one device (AllocContig
// guarantees it).
func (s *Swap) WriteCluster(start int64, bufs [][]byte) error {
	s.ctrIOs.Inc()
	d := s.deviceFor(start)
	if start-d.base+int64(len(bufs)) > d.size {
		return fmt.Errorf("swap: cluster at %d spans devices", start)
	}
	return d.dev.WritePages(start-d.base, bufs)
}

// InUse reports whether a slot is allocated (test/debug helper).
func (s *Swap) InUse(slot int64) bool {
	if slot < 0 || slot >= s.nSlots.Load() {
		return false
	}
	d := s.deviceFor(slot)
	sh := d.shardFor(slot - d.base)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.inUse[slot-sh.base]
}
