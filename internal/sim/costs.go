package sim

import (
	"fmt"
	"time"
)

// Costs is the calibrated table of primitive operation costs. One table is
// shared by both VM systems; a system only spends more total time than the
// other by performing more of these primitives, never by being charged a
// different rate for the same work.
//
// CPU-side costs are calibrated to a 333 MHz Pentium-II running kernel
// code (roughly 3 ns/cycle; structure allocation and locking costs follow
// the measurements reported for 4.4BSD-era kernels). Disk costs follow a
// late-1990s IDE disk: ~8 ms average positioning time and ~8 MB/s media
// rate (≈ 500 µs per 4 KB page transferred).
type Costs struct {
	// Locking and lookup.
	LockAcquire    time.Duration // acquire+release an uncontended kernel lock
	MapLookupEntry time.Duration // per map entry inspected during a lookup
	HashLookup     time.Duration // one pager-hash-table probe (BSD VM only path)

	// Structure management.
	MapEntryAlloc time.Duration // allocate+initialise a map entry
	MapEntryFree  time.Duration
	ObjectAlloc   time.Duration // allocate a vm_object / uvm aobj
	ObjectFree    time.Duration
	PagerAlloc    time.Duration // allocate a vm_pager + private data (BSD VM)
	AnonAlloc     time.Duration // allocate an anon (UVM)
	AnonFree      time.Duration
	AmapAlloc     time.Duration // allocate an amap header (UVM)
	AmapPerSlot   time.Duration // initialise one amap slot

	// Vnode layer.
	VnodeAlloc time.Duration // allocate+initialise a vnode
	NameLookup time.Duration // path -> vnode lookup (namei, cached)

	// Page-level work.
	PageAlloc time.Duration // grab a frame from the free list
	PageFree  time.Duration
	PageZero  time.Duration // zero 4 KB
	PageCopy  time.Duration // copy 4 KB
	PageTouch time.Duration // CPU access to one resident mapped page

	// pmap (MMU) operations, per page.
	PmapEnter   time.Duration
	PmapRemove  time.Duration
	PmapProtect time.Duration
	PmapExtract time.Duration

	// Fault handling.
	FaultTrap    time.Duration // hardware trap + dispatch into the handler
	ChainSearch  time.Duration // per object inspected in a shadow chain (BSD VM)
	CollapseScan time.Duration // one object-collapse attempt (BSD VM)

	// Backing store.
	SwapSlotAlloc time.Duration
	DiskSeek      time.Duration // head positioning for a discontiguous access
	DiskOp        time.Duration // fixed per-command cost (controller + rotational)
	DiskPageIO    time.Duration // media transfer of one 4 KB page
}

// DefaultCosts returns the calibrated cost table used by every experiment.
func DefaultCosts() *Costs {
	return &Costs{
		LockAcquire:    100 * time.Nanosecond,
		MapLookupEntry: 60 * time.Nanosecond,
		HashLookup:     250 * time.Nanosecond,

		MapEntryAlloc: 600 * time.Nanosecond,
		MapEntryFree:  250 * time.Nanosecond,
		ObjectAlloc:   900 * time.Nanosecond,
		ObjectFree:    400 * time.Nanosecond,
		PagerAlloc:    700 * time.Nanosecond,
		AnonAlloc:     300 * time.Nanosecond,
		AnonFree:      150 * time.Nanosecond,
		AmapAlloc:     500 * time.Nanosecond,
		AmapPerSlot:   15 * time.Nanosecond,

		VnodeAlloc: 800 * time.Nanosecond,
		NameLookup: 900 * time.Nanosecond,

		PageAlloc: 500 * time.Nanosecond,
		PageFree:  250 * time.Nanosecond,
		PageZero:  1500 * time.Nanosecond,
		PageCopy:  2200 * time.Nanosecond,
		PageTouch: 60 * time.Nanosecond,

		PmapEnter:   400 * time.Nanosecond,
		PmapRemove:  300 * time.Nanosecond,
		PmapProtect: 260 * time.Nanosecond,
		PmapExtract: 120 * time.Nanosecond,

		FaultTrap:    1800 * time.Nanosecond,
		ChainSearch:  350 * time.Nanosecond,
		CollapseScan: 900 * time.Nanosecond,

		SwapSlotAlloc: 180 * time.Nanosecond,
		DiskSeek:      6 * time.Millisecond,
		DiskOp:        2 * time.Millisecond,
		DiskPageIO:    500 * time.Microsecond,
	}
}

// Machine profiles. The paper's results were measured on exactly one
// machine — the 333 MHz / 32 MB testbed with a late-1990s IDE disk — so
// every clustering and overlap win is implicitly a claim about that
// disk's seek/transfer ratio. The named profiles below keep the CPU-side
// cost table fixed and swap only the disk model, which is what lets a
// run ask "does this pipeline still pay off when seeks are nearly
// free?" without changing any other variable.
//
//   - hdd97: the calibrated default (DefaultCosts) — 6 ms positioning,
//     2 ms command overhead, 500 µs per 4 KB page (~8 MB/s media rate).
//     Seek/media ratio 12:1: clustering is everything.
//   - nvme: a modern flash device — 20 µs positioning, 10 µs command
//     overhead, 2 µs per page (~2 GB/s). Ratio 10:1 but three orders of
//     magnitude faster in absolute terms: windows drain almost
//     instantly, so overlap matters less and per-command overhead more.
//   - ramdisk: memory-backed storage — no positioning cost, 1 µs
//     command overhead, 300 ns per page (a 4 KB memcpy). I/O is nearly
//     free; what remains measurable is pure command count.

// Profiles returns the named machine profiles in canonical order. The
// empty name is accepted everywhere a profile name is and means
// DefaultProfile.
func Profiles() []string { return []string{"hdd97", "nvme", "ramdisk"} }

// DefaultProfile is the profile every experiment uses unless told
// otherwise: the paper's 1997-era disk.
const DefaultProfile = "hdd97"

// CostsForProfile returns the cost table for a named machine profile.
// The empty string and DefaultProfile both return DefaultCosts, so
// configurations that never mention profiles behave byte-identically to
// the pre-profile code. Unknown names are an error, listing the valid
// profiles.
func CostsForProfile(name string) (*Costs, error) {
	switch name {
	case "", DefaultProfile:
		return DefaultCosts(), nil
	case "nvme":
		c := DefaultCosts()
		c.DiskSeek = 20 * time.Microsecond
		c.DiskOp = 10 * time.Microsecond
		c.DiskPageIO = 2 * time.Microsecond
		return c, nil
	case "ramdisk":
		c := DefaultCosts()
		c.DiskSeek = 0
		c.DiskOp = 1 * time.Microsecond
		c.DiskPageIO = 300 * time.Nanosecond
		return c, nil
	}
	return nil, fmt.Errorf("sim: unknown machine profile %q (valid: %v)", name, Profiles())
}
