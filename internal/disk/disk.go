// Package disk models a late-1990s fixed disk at page granularity.
//
// The model is deliberately simple — a positioning (seek + rotational)
// cost for every discontiguous access and a media-rate cost per 4 KB page
// transferred — because that is the only disk behaviour the paper's
// results depend on: BSD VM pays one positioning cost per page written
// (it pages out one page per I/O), while UVM's clustered pageout pays one
// positioning cost per 64-page cluster (Figure 5), and Figure 2's knee is
// driven purely by whether a file access goes to memory or to the disk at
// all.
//
// Blocks are page-sized and hold real bytes, so swap round-trips and file
// reads are verified byte-for-byte by the test suite. A block is an
// immutable buffer, never written once stored: a command stores or hands
// out block pointers under the disk lock and copies no page bytes there.
// The block interface (ReadBlocks, WriteBlocks, WriteBlocksDeferred)
// shares buffers with its caller — a write keeps the caller's buffers as
// the blocks, and a read hands out the blocks themselves — so a caller
// must never write a buffer it has passed or received: this is how
// physical frames and disk blocks share page data (see internal/phys).
// The page interface (ReadPages, WritePages) serves
// callers with ordinary buffers: a write copies them into fresh blocks
// before taking the lock, a read copies the blocks out after releasing
// it.
package disk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
)

// ErrOutOfRange is returned for I/O beyond the end of the device.
var ErrOutOfRange = errors.New("disk: block out of range")

// ErrNoSpace is returned when an extent allocation cannot be satisfied.
var ErrNoSpace = errors.New("disk: no space")

// Disk is a simulated page-granular block device.
type Disk struct {
	clock *sim.Clock
	costs *sim.Costs

	//uvm:lock disk
	mu      sync.Mutex
	nblocks int64
	blocks  [][]byte // by block, each immutable once stored; a nil block reads as zeros
	head    int64    // block the head sits after (sequential detection)
	nextfit int64    // bump pointer for Alloc

	// plan, when non-nil, is the declarative fault schedule consulted
	// before every command (see faultplan.go). Installed by SetFaultPlan.
	plan *FaultPlan
	// dead is set once a device-death fault triggers (or Kill is
	// called); every later command fails with ErrDeviceDead. Read
	// lock-free by allocators deciding whether the device is worth
	// landing on.
	dead atomic.Bool

	// FailRead and FailWrite, when non-nil, are consulted for every
	// block a command would transfer and may inject an I/O error. They
	// predate the declarative FaultPlan and remain for tests that need
	// an arbitrary closure; a command stops at the first failing block,
	// exactly like a plan-injected error.
	FailRead  func(block int64) error
	FailWrite func(block int64) error

	stats *sim.Stats
}

// New creates a disk with nblocks page-sized blocks.
func New(clock *sim.Clock, costs *sim.Costs, stats *sim.Stats, nblocks int64) *Disk {
	if nblocks <= 0 {
		panic("disk: non-positive size")
	}
	return &Disk{
		clock:   clock,
		costs:   costs,
		nblocks: nblocks,
		blocks:  make([][]byte, nblocks),
		head:    -1,
		stats:   stats,
	}
}

// Blocks returns the device size in blocks.
func (d *Disk) Blocks() int64 { return d.nblocks }

// Alloc reserves a contiguous extent of n blocks and returns its first
// block. This is a simple bump allocator: the simulated filesystem lays
// files out contiguously, which is the behaviour FFS approximates for the
// small files the experiments use.
func (d *Disk) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("disk: bad extent size %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.nextfit+n > d.nblocks {
		return 0, ErrNoSpace
	}
	start := d.nextfit
	d.nextfit += n
	return start, nil
}

// SetFaultPlan installs (or clears, with nil) the disk's declarative
// fault schedule. Install before I/O starts; a plan must not be shared
// between disks.
func (d *Disk) SetFaultPlan(p *FaultPlan) {
	d.mu.Lock()
	d.plan = p
	d.mu.Unlock()
}

// Dead reports whether the device has died (a device-death fault
// triggered, or Kill was called). Lock-free: allocators poll it to stop
// landing new work on a dead device.
func (d *Disk) Dead() bool { return d.dead.Load() }

// Kill marks the device dead immediately, as a device-death fault rule
// would: every later command fails with ErrDeviceDead. Test/experiment
// helper for death scenarios that are awkward to express as an Nth-op
// rule.
func (d *Disk) Kill() { d.dead.Store(true) }

// validateBufs checks every buffer is exactly one page long (a block
// read only overwrites its entries, so it skips the check). Runs before
// any accounting: a malformed request never moves the head or charges
// time, because no command was ever issued to the device.
func validateBufs(bufs [][]byte) error {
	for i, buf := range bufs {
		if len(buf) != param.PageSize {
			return fmt.Errorf("disk: buffer %d has size %d", i, len(buf))
		}
	}
	return nil
}

// admit decides how many of a command's n pages transfer before a fault
// stops it: n with no fault, fewer (with the fault's error) otherwise.
// Consults the death flag, the declarative plan, then the legacy
// FailRead/FailWrite hook — whichever trips earliest in the block run
// wins. Caller holds d.mu.
func (d *Disk) admit(start int64, n int, write bool) (int, error) {
	if d.dead.Load() {
		return 0, ErrDeviceDead
	}
	k, err := n, error(nil)
	if d.plan != nil {
		var die bool
		k, die, err = d.plan.admit(start, n, write)
		if die {
			d.dead.Store(true)
			d.stats.DiskDeaths.Inc()
		}
	}
	hook := d.FailRead
	if write {
		hook = d.FailWrite
	}
	if hook != nil {
		for i := 0; i < k; i++ {
			if herr := hook(start + int64(i)); herr != nil {
				return i, herr
			}
		}
	}
	return k, err
}

// cmdKind is what one device command does with its pages.
type cmdKind int

const (
	cmdRead          cmdKind = iota // medium into the buffers, on the caller's clock
	cmdWrite                        // buffers onto the medium, on the caller's clock
	cmdWriteDeferred                // buffers onto the medium, into the deferred ledger
)

// ReadPages transfers len(bufs) consecutive blocks starting at start into
// the supplied page buffers. Each buffer must be param.PageSize long.
//
// Fault semantics: a command that faults at block k has read the first k
// pages into their buffers; only those k pages are charged and counted,
// and the head stops after them.
func (d *Disk) ReadPages(start int64, bufs [][]byte) error {
	return d.command(cmdRead, start, bufs, true)
}

// WritePages transfers len(data) consecutive blocks starting at start from
// the supplied page buffers.
//
// Fault semantics mirror ReadPages: the first k pages of a command that
// faults at block k are durable on the medium (this is what a torn
// cluster write looks like), only they are charged and counted, and the
// head stops after them.
func (d *Disk) WritePages(start int64, data [][]byte) error {
	return d.command(cmdWrite, start, data, true)
}

// ReadBlocks is ReadPages sharing the blocks: it sets blocks[i] to block
// start+i itself, nil for a block never written (which reads as zeros),
// for the first k entries of a command that faults at block k. The
// caller must never write a block it receives.
func (d *Disk) ReadBlocks(start int64, blocks [][]byte) error {
	return d.command(cmdRead, start, blocks, false)
}

// WriteBlocks is WritePages keeping the buffers: block start+i becomes
// blocks[i] itself, which the caller must never write again.
func (d *Disk) WriteBlocks(start int64, blocks [][]byte) error {
	return d.command(cmdWrite, start, blocks, false)
}

// WriteBlocksDeferred stores blocks like WriteBlocks but charges no time
// to the calling context: the transfer is performed "later" by the
// syncer / buffer-cache flush, whose background time the simulation does
// not model. Deferred writes are counted separately in the stats.
func (d *Disk) WriteBlocksDeferred(start int64, blocks [][]byte) error {
	return d.command(cmdWriteDeferred, start, blocks, false)
}

// copyStack is how many block pointers a copying command keeps on its own
// stack; a longer command's spill to the heap.
const copyStack = 64

// command is every device command's one body: range and buffer checks,
// admission against the fault schedule, then the charge, the count and
// the transfer of the k pages admitted. A dead controller fails the
// command before it reaches the medium; any other fault stops it after k
// pages. Under the lock the transfer only stores or snapshots block
// pointers. With copyBufs the caller's buffers are its own: a write
// copies them into fresh blocks before the lock is taken, and a read
// copies the snapshot out (absent blocks as zeros) after it is released.
func (d *Disk) command(kind cmdKind, start int64, bufs [][]byte, copyBufs bool) error {
	if err := d.checkRange(start, int64(len(bufs))); err != nil {
		return err
	}
	if kind != cmdRead || copyBufs {
		if err := validateBufs(bufs); err != nil {
			return err
		}
	}
	blocks := bufs
	if copyBufs {
		var stack [copyStack][]byte
		blocks = append(stack[:0], bufs...)
		if kind != cmdRead {
			for i, buf := range bufs {
				blocks[i] = append([]byte(nil), buf...)
			}
		}
	}
	k, err := d.transfer(kind, start, blocks)
	if copyBufs && kind == cmdRead {
		for i, blk := range blocks[:k] {
			if blk != nil {
				copy(bufs[i], blk)
			} else {
				clear(bufs[i])
			}
		}
	}
	return err
}

// transfer is command's part under the disk lock: admission, the charge
// and counts of the k pages admitted, and the block pointers' move — a
// write stores blocks[:k], a read overwrites them with the blocks.
func (d *Disk) transfer(kind cmdKind, start int64, blocks [][]byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k, err := d.admit(start, len(blocks), kind != cmdRead)
	if err != nil && errors.Is(err, ErrDeviceDead) && k == 0 {
		// Dead controller: the command never reaches the medium.
		d.stats.DiskErrors.Inc()
		return 0, err
	}
	switch kind {
	case cmdRead:
		d.charge(start, k)
		d.stats.DiskReads.Inc()
		d.stats.DiskPagesRead.Add(int64(k))
	case cmdWrite:
		d.charge(start, k)
		d.stats.DiskWrites.Inc()
		d.stats.DiskPagesWritten.Add(int64(k))
	case cmdWriteDeferred:
		// The device-busy time goes to the disk.deferred_ns ledger
		// instead of the caller's clock: the command overlaps the caller's
		// execution, but the disk is still occupied, and the ledger is what
		// makes clustering's fewer-commands win measurable for overlapped
		// writeback. The head model is untouched: deferred commands are
		// reordered by the syncer, so they do not perturb the synchronous
		// cost sequence.
		d.stats.DiskWritesDeferred.Inc()
		busy := d.costs.DiskOp + d.costs.DiskSeek + time.Duration(k)*d.costs.DiskPageIO
		d.stats.DiskDeferredNs.Add(int64(busy))
	}
	if kind == cmdRead {
		copy(blocks[:k], d.blocks[start:])
	} else {
		copy(d.blocks[start:], blocks[:k])
	}
	if err != nil {
		d.stats.DiskErrors.Inc()
	}
	return k, err
}

// checkRange rejects I/O outside [0, nblocks). The bound is checked
// without computing start+n, which can wrap on adversarial inputs (a
// fault plan probing with huge block numbers must hit ErrOutOfRange, not
// a wrapped-around "valid" range).
func (d *Disk) checkRange(start, n int64) error {
	if start < 0 || n < 0 || n > d.nblocks || start > d.nblocks-n {
		return ErrOutOfRange
	}
	return nil
}

// charge accounts the time for one I/O command touching n blocks at
// start: a fixed per-command cost (controller overhead plus rotational
// latency — paid even for back-to-back sequential single-page commands,
// which is why unclustered pageout is slow), a positioning cost unless the
// head already sits there, and the media transfer rate per page.
func (d *Disk) charge(start int64, n int) {
	d.clock.Advance(d.costs.DiskOp)
	if d.head != start {
		d.clock.Advance(d.costs.DiskSeek)
		d.stats.DiskSeeks.Inc()
	}
	d.clock.ChargeN(n, d.costs.DiskPageIO)
	d.head = start + int64(n)
}
