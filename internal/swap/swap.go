// Package swap implements the swap partition: a slot allocator over one
// simulated disk, whose block n is slot n, plus page-granular I/O.
//
// Two allocation modes exist because the two VM systems place pages on
// swap differently (paper §6). BSD VM assigns a page's swap location once,
// inside a fixed per-object swap block, so its pageouts land wherever each
// page's slot happens to be — one I/O per page. UVM treats anonymous
// memory's backing location as reassignable: a reclaim pass's pageout
// calls AllocContig to get a fresh run of slots for a whole dirty
// cluster, frees the pages' old slots, and writes the cluster with a
// single I/O.
//
// # Concurrency
//
// The allocator is sharded so that it is never a serialisation point on
// the pageout path: the slot space is split into contiguous shards, each
// with its own mutex, free-slot bitmap and next-fit hint. Concurrent slot
// traffic — pageout, object writeback and pageins freeing slots — lands
// on different shards via a round-robin cursor and proceeds without
// contention. The in-use count is a lock-free atomic, so capacity checks
// and accounting never take a lock at all. A disk small enough for a
// single shard (everything under minShardSlots×2) behaves exactly like
// the classic single-mutex next-fit allocator, which keeps small
// deterministic simulations bit-for-bit stable.
//
// A cluster never spans a shard, and shards are sized far above the
// largest pageout cluster.
//
// # Asynchronous writes
//
// Cluster writes can also be submitted asynchronously (WriteClusterAsync,
// aio.go): the disk admits a bounded in-flight window of writes whose
// completions are delivered by callback, which is how a reclaim pass
// overlaps pageout I/O with the rest of its work.
//
// # Page buffers
//
// The VM systems move page data by reference (internal/phys): ReadBlocks,
// WriteBlocks and WriteClusterAsync share the slots' immutable blocks
// with the frames, so a pageout or pagein copies no page bytes. ReadSlot
// and WriteCluster serve callers with ordinary buffers, and copy.
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
	// maxShards bounds the shard count: enough to spread
	// concurrent reclaim, few enough that a full-device scan stays cheap.
	maxShards = 8
	// minShardSlots is the smallest shard worth splitting for. It is far
	// above the largest pageout cluster (64 pages), so sharding never
	// makes a satisfiable AllocContig fail.
	minShardSlots = 1024
)

// shard is one contiguous slice of the slot space with its own
// lock, bitmap and next-fit hint.
type shard struct {
	base int64 // slot number of this shard's first slot
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

// shardCount picks the number of shards for a disk of the given size:
// the largest power of two up to maxShards that keeps every
// shard at least minShardSlots long.
func shardCount(size int64) int {
	n := 1
	for n < maxShards && size/int64(n*2) >= minShardSlots {
		n *= 2
	}
	return n
}

// Swap is the swap subsystem: one swap disk whose block n is slot n,
// split into shards.
type Swap struct {
	clock *sim.Clock
	costs *sim.Costs

	dev       *disk.Disk
	shards    []*shard
	shardSize int64         // size of every shard but the last
	cursor    atomic.Uint64 // round-robin start shard for allocations

	// writer is the bounded-window asynchronous write engine (aio.go).
	writer *disk.AsyncWriter

	stats *sim.Stats

	nInUse atomic.Int64 // lock-free in-use count across all shards
}

// New creates a swap subsystem whose slots are the blocks of dev.
func New(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, dev *disk.Disk) *Swap {
	size := dev.Blocks()
	s := &Swap{clock: clock, costs: costs, stats: stats, dev: dev,
		writer: disk.NewAsyncWriter(dev, 0)}
	k := shardCount(size)
	s.shardSize = size / int64(k)
	for i := 0; i < k; i++ {
		lo := int64(i) * s.shardSize
		hi := lo + s.shardSize
		if i == k-1 {
			hi = size // last shard absorbs the remainder
		}
		s.shards = append(s.shards, &shard{
			base:  lo,
			size:  hi - lo,
			inUse: make([]bool, hi-lo),
			nFree: hi - lo,
		})
	}
	return s
}

// shardFor returns the shard owning a slot.
func (s *Swap) shardFor(slot int64) *shard {
	return s.shards[min(slot/s.shardSize, int64(len(s.shards))-1)]
}

// Slots returns the slot count.
func (s *Swap) Slots() int64 { return s.dev.Blocks() }

// SlotsInUse returns how many slots are currently allocated.
func (s *Swap) SlotsInUse() int { return int(s.nInUse.Load()) }

// Alloc reserves a single slot.
func (s *Swap) Alloc() (int64, error) {
	return s.AllocContig(1)
}

// AllocContig reserves n contiguous slots and returns the first. The run
// never spans shards (a cluster must go out in one I/O); with several
// shards the starting shard rotates so concurrent allocators spread out,
// and a single shard keeps the classic deterministic next-fit order. Contiguity is what lets UVM page a whole cluster out in one
// operation.
//
// Once the disk has died (disk.Disk.Dead) nothing more is handed out, so
// pageout stops queueing I/O that can only fail. Slots already allocated
// stay allocated — their pagein errors are the faulting process'
// problem, not the allocator's.
func (s *Swap) AllocContig(n int) (int64, error) {
	if n <= 0 {
		return NoSlot, fmt.Errorf("swap: bad cluster size %d", n)
	}
	s.clock.ChargeN(n, s.costs.SwapSlotAlloc)
	if s.nInUse.Load()+int64(n) > s.Slots() || s.dev.Dead() {
		return NoSlot, ErrNoSwap
	}
	k := len(s.shards)
	first := 0
	if k > 1 {
		first = int(s.cursor.Add(1)-1) % k
	}
	for i := 0; i < k; i++ {
		if slot, ok := s.shards[(first+i)%k].alloc(int64(n)); ok {
			s.nInUse.Add(int64(n))
			s.stats.SwapSlotsLive.Add(int64(n))
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
	if slot < 0 || slot+int64(n) > s.Slots() {
		panic(fmt.Sprintf("swap: freeing out-of-range slots [%d,%d)", slot, slot+int64(n)))
	}
	for left := int64(n); left > 0; {
		sh := s.shardFor(slot)
		run := min(sh.base+sh.size-slot, left) // slots of the range inside this shard
		sh.freeRange(slot-sh.base, run)
		slot += run
		left -= run
	}
	s.nInUse.Add(-int64(n))
	s.stats.SwapSlotsLive.Add(-int64(n))
}

// ReadSlot pages a single slot into buf.
func (s *Swap) ReadSlot(slot int64, buf []byte) error {
	s.stats.SwapIOs.Inc()
	return s.dev.ReadPages(slot, [][]byte{buf})
}

// ReadBlocks pages len(blocks) contiguous slots starting at start in with
// a single I/O operation, sharing their blocks (disk.Disk.ReadBlocks):
// the read of a pagein, clustered or not.
func (s *Swap) ReadBlocks(start int64, blocks [][]byte) error {
	s.stats.SwapIOs.Inc()
	return s.dev.ReadBlocks(start, blocks)
}

// WriteCluster pages a contiguous cluster out with a single I/O
// operation, copying bufs.
func (s *Swap) WriteCluster(start int64, bufs [][]byte) error {
	s.stats.SwapIOs.Inc()
	return s.dev.WritePages(start, bufs)
}

// WriteBlocks is WriteCluster keeping the buffers as the slots' blocks
// (disk.Disk.WriteBlocks): the write of a pageout.
func (s *Swap) WriteBlocks(start int64, blocks [][]byte) error {
	s.stats.SwapIOs.Inc()
	return s.dev.WriteBlocks(start, blocks)
}

// inUse reports whether a slot is allocated (test/debug helper).
func (s *Swap) inUse(slot int64) bool {
	if slot < 0 || slot >= s.Slots() {
		return false
	}
	sh := s.shardFor(slot)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.inUse[slot-sh.base]
}
