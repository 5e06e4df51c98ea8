// Package vmapi defines the interface both virtual memory systems — the
// 4.4BSD/Mach baseline (internal/bsdvm) and UVM (internal/uvm) — present
// to processes, workloads and experiments. Having one API is what lets
// every experiment in the paper run unmodified against either system.
//
// The package also provides Machine, the bundle of simulated hardware and
// kernel substrate (RAM, MMU, disks, swap partition, filesystem, clock,
// cost table) that a VM system is booted on. Both systems boot on
// identical machines in every comparison.
package vmapi

import (
	"errors"
	"fmt"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/sim"
	"uvm/internal/swap"
	"uvm/internal/vfs"
)

// Errors shared by both VM systems.
var (
	// ErrFault is the simulation's SIGSEGV: an access with no mapping or
	// insufficient protection.
	ErrFault = errors.New("vm: segmentation fault")
	// ErrNoSpace reports address-space or resource exhaustion.
	ErrNoSpace = errors.New("vm: no space")
	// ErrInvalid reports a malformed request (unaligned, zero length,
	// out-of-range protection, ...).
	ErrInvalid = errors.New("vm: invalid argument")
	// ErrExited reports an operation on a process that has exited.
	ErrExited = errors.New("vm: process has exited")
	// ErrDeadlock reports that the system could not reclaim memory: every
	// page is wired or swap is exhausted (the paper's "swap memory leak
	// deadlock" surfaces as this error in the baseline system).
	ErrDeadlock = errors.New("vm: memory deadlock")
)

// MapFlags selects the kind of mapping established by Mmap.
type MapFlags uint8

const (
	// MapAnon requests zero-fill anonymous memory (no file).
	MapAnon MapFlags = 1 << iota
	// MapPrivate requests copy-on-write semantics: stores are private to
	// this mapping.
	MapPrivate
	// MapShared requests shared semantics: stores are visible through the
	// underlying object.
	MapShared
	// MapFixed places the mapping exactly at the requested address.
	MapFixed
)

// Valid reports whether the flag combination is well-formed.
func (f MapFlags) Valid() bool {
	priv, shared := f&MapPrivate != 0, f&MapShared != 0
	return priv != shared // exactly one sharing mode
}

// MachineConfig sizes a simulated machine.
type MachineConfig struct {
	RAMPages  int   // physical memory, in 4 KB pages
	SwapPages int64 // swap partition size, in slots
	FSPages   int64 // filesystem disk size, in blocks
	MaxVnodes int   // kernel vnode table size (desiredvnodes)

	// AllocCaches enables the per-CPU free-page caches in phys: that
	// many magazines of free frames, refilled from and drained to the
	// global pool in batches, so concurrent faulting goroutines stop
	// serialising on the pool (phys/alloccache.go). 0 — the default —
	// keeps the exact single-pool allocation layout, whose operation
	// order is byte-deterministic on single-threaded runs; the paper
	// experiments depend on that.
	AllocCaches int

	// Profile names the machine's cost profile (sim.Profiles). Empty
	// means sim.DefaultProfile — the paper's 1997 testbed — and is
	// byte-identical to the pre-profile behaviour.
	Profile string

	// FSFaultPlan and SwapFaultPlan, when non-nil, are installed on the
	// filesystem and swap disks at boot (disk.FaultPlan). Plans are
	// per-device state and must not be shared between the two.
	FSFaultPlan   *disk.FaultPlan
	SwapFaultPlan *disk.FaultPlan
}

// Validate reports the first malformed field of a config, naming it.
// NewMachine calls it and panics on error; drivers that accept config
// from flags should call it themselves and print the message instead.
func (cfg MachineConfig) Validate() error {
	if cfg.RAMPages <= 0 {
		return fmt.Errorf("vmapi: MachineConfig.RAMPages must be positive (got %d)", cfg.RAMPages)
	}
	if cfg.SwapPages <= 0 {
		return fmt.Errorf("vmapi: MachineConfig.SwapPages must be positive (got %d)", cfg.SwapPages)
	}
	if cfg.FSPages <= 0 {
		return fmt.Errorf("vmapi: MachineConfig.FSPages must be positive (got %d)", cfg.FSPages)
	}
	if cfg.MaxVnodes < 1 {
		return fmt.Errorf("vmapi: MachineConfig.MaxVnodes must be at least 1 (got %d)", cfg.MaxVnodes)
	}
	if cfg.AllocCaches < 0 {
		return fmt.Errorf("vmapi: MachineConfig.AllocCaches must not be negative (got %d)", cfg.AllocCaches)
	}
	if _, err := sim.CostsForProfile(cfg.Profile); err != nil {
		return fmt.Errorf("vmapi: MachineConfig.Profile: %w", err)
	}
	return nil
}

// DefaultConfig is a 32 MB Pentium-II class machine matching the paper's
// testbed (§6: "a 333MHz Pentium-II with thirty-two megabytes of RAM"),
// with a 128 MB swap partition and a 256 MB filesystem.
func DefaultConfig() MachineConfig {
	return MachineConfig{
		RAMPages:  32 << 20 >> param.PageShift,
		SwapPages: 128 << 20 >> param.PageShift,
		FSPages:   256 << 20 >> param.PageShift,
		MaxVnodes: 2000,
	}
}

// ProfileConfig returns the machine-size preset for a named profile: the
// paper's testbed for hdd97 (identical to DefaultConfig), a larger
// modern machine for nvme, and a small memory-rich box for ramdisk. The
// preset carries the profile name, so NewMachine picks up the matching
// cost table.
func ProfileConfig(profile string) (MachineConfig, error) {
	if _, err := sim.CostsForProfile(profile); err != nil {
		return MachineConfig{}, err
	}
	cfg := DefaultConfig()
	cfg.Profile = profile
	switch profile {
	case "nvme":
		cfg.RAMPages = 128 << 20 >> param.PageShift
		cfg.SwapPages = 256 << 20 >> param.PageShift
		cfg.FSPages = 512 << 20 >> param.PageShift
		cfg.MaxVnodes = 4000
	case "ramdisk":
		cfg.RAMPages = 64 << 20 >> param.PageShift
		cfg.SwapPages = 64 << 20 >> param.PageShift
		cfg.FSPages = 128 << 20 >> param.PageShift
	}
	return cfg, nil
}

// Machine is the simulated hardware + substrate a VM system boots on.
type Machine struct {
	Clock *sim.Clock
	Costs *sim.Costs
	Stats *sim.Stats
	Mem   *phys.Mem
	MMU   *pmap.MMU
	Swap  *swap.Swap
	FS    *vfs.FS

	FSDisk   *disk.Disk
	SwapDisk *disk.Disk
}

// NewMachine boots a machine per cfg, with the cost table named by
// cfg.Profile (the calibrated 1997 table when unset). The config must be
// valid; NewMachine panics with Validate's message otherwise — drivers
// taking sizes from user input should Validate first.
func NewMachine(cfg MachineConfig) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	clock := sim.NewClock()
	costs, err := sim.CostsForProfile(cfg.Profile)
	if err != nil {
		panic(err) // unreachable: Validate checked the profile
	}
	stats := sim.NewStats()
	fsDisk := disk.New(clock, costs, stats, cfg.FSPages)
	swDisk := disk.New(clock, costs, stats, cfg.SwapPages)
	if cfg.FSFaultPlan != nil {
		fsDisk.SetFaultPlan(cfg.FSFaultPlan)
	}
	if cfg.SwapFaultPlan != nil {
		swDisk.SetFaultPlan(cfg.SwapFaultPlan)
	}
	sw := swap.New(clock, costs, stats, swDisk)
	mem := phys.NewMem(clock, costs, stats, cfg.RAMPages)
	if cfg.AllocCaches > 0 {
		mem.SetAllocCaches(cfg.AllocCaches, 0) // 0: the phys default batch
	}
	return &Machine{
		Clock:    clock,
		Costs:    costs,
		Stats:    stats,
		Mem:      mem,
		MMU:      pmap.NewMMU(clock, costs, stats, mem),
		Swap:     sw,
		FS:       vfs.NewFS(clock, costs, stats, fsDisk, cfg.MaxVnodes),
		FSDisk:   fsDisk,
		SwapDisk: swDisk,
	}
}

// System is a booted virtual memory system.
type System interface {
	// Name identifies the system ("bsdvm" or "uvm") in reports.
	Name() string
	// Machine returns the substrate the system was booted on.
	Machine() *Machine
	// NewProcess creates a process with an empty address space. The system
	// performs its per-process kernel allocations (user structure, kernel
	// stack) — one of the Table 1 behaviours.
	NewProcess(name string) (Process, error)
	// KernelAlloc simulates a boot-time kmem_alloc of wired kernel memory
	// (npages pages, with the given protection) for a kernel subsystem.
	// How many map entries this consumes is system-specific: BSD VM
	// allocates one entry per call, UVM coalesces adjacent kernel entries
	// with matching attributes.
	KernelAlloc(npages int, prot param.Prot) (param.VAddr, error)
	// KernelMapEntries returns the number of map entries currently
	// allocated in the kernel map.
	KernelMapEntries() int
	// TotalMapEntries returns the map entries allocated system-wide
	// (kernel map plus every live process map) — the Table 1 metric.
	TotalMapEntries() int
	// Shutdown waits out the system's background work — for UVM, a
	// running reclaim pass and the writes still in flight — so a report
	// read afterwards is a quiescent snapshot. The system remains usable
	// afterwards, so teardown ordering is forgiving. Idempotent; a no-op
	// for systems with no background work.
	Shutdown()

	// NewShmSegment creates a System V style shared anonymous memory
	// segment of npages pages (§5: one of the uses of anonymous memory).
	// UVM backs it with an aobj; BSD VM with an anonymous vm_object. The
	// segment holds one reference until Release.
	NewShmSegment(npages int) (ShmSegment, error)
}

// ShmSegment is a shared anonymous memory segment that processes of the
// same system can attach.
type ShmSegment interface {
	// Pages returns the segment size.
	Pages() int
	// Attach maps the segment into p's address space with prot.
	Attach(p Process, prot param.Prot) (param.VAddr, error)
	// Release drops the creation reference; the memory is freed once the
	// last attachment is unmapped.
	Release()
}

// Process is one simulated process' view of its VM system.
type Process interface {
	Name() string

	// Mmap establishes a mapping of length bytes. With MapAnon, vn must be
	// nil and the mapping is zero-fill; otherwise vn names the file and
	// off the starting offset within it. Unless MapFixed, addr is a hint
	// (0 = kernel chooses). Returns the chosen address.
	Mmap(addr param.VAddr, length param.VSize, prot param.Prot,
		flags MapFlags, vn *vfs.Vnode, off param.PageOff) (param.VAddr, error)
	// Munmap removes all mappings in [addr, addr+length).
	Munmap(addr param.VAddr, length param.VSize) error
	// Mprotect changes the protection of [addr, addr+length).
	Mprotect(addr param.VAddr, length param.VSize, prot param.Prot) error
	// Minherit sets the fork-time inheritance of [addr, addr+length).
	Minherit(addr param.VAddr, length param.VSize, inh param.Inherit) error
	// Madvise sets the usage hint of [addr, addr+length).
	Madvise(addr param.VAddr, length param.VSize, adv param.Advice) error
	// Mlock wires [addr, addr+length) into physical memory; Munlock
	// unwires it. (The mlock system call: the one wiring path where even
	// UVM must record state in the map, §3.2.)
	Mlock(addr param.VAddr, length param.VSize) error
	Munlock(addr param.VAddr, length param.VSize) error
	// Msync writes modified pages of a shared file mapping back.
	Msync(addr param.VAddr, length param.VSize) error

	// Fork creates a child whose address space follows each mapping's
	// inheritance attribute. Exit tears the address space down.
	Fork(name string) (Process, error)
	// Vfork creates a child that *shares* the parent's address space (no
	// mapping copies, no write-protection) until it exits — the paper's
	// footnote-3 observation that vfork avoids fork's per-entry and
	// per-page costs when the child will immediately exec.
	Vfork(name string) (Process, error)
	Exit()
	Exited() bool

	// Access simulates one CPU access (load or store) at addr, taking a
	// page fault if the MMU lacks a valid translation. TouchRange touches
	// one address per page across the range.
	Access(addr param.VAddr, write bool) error
	TouchRange(addr param.VAddr, length param.VSize, write bool) error

	// ReadBytes and WriteBytes move data between the simulation and the
	// process' memory image, faulting as needed (the copyin/copyout path).
	ReadBytes(addr param.VAddr, buf []byte) error
	WriteBytes(addr param.VAddr, data []byte) error

	// Sysctl and Physio simulate the two kernel paths that temporarily
	// wire a user buffer (§3.2): the buffer at addr is wired, the
	// operation runs, and the buffer is unwired.
	Sysctl(addr param.VAddr, length param.VSize) error
	Physio(addr param.VAddr, length param.VSize) error

	// MapEntryCount returns the live map entries in this process' map.
	MapEntryCount() int
	// Mincore reports, for each page of [addr, addr+length), whether it
	// is resident in this process' address space (the mincore system
	// call).
	Mincore(addr param.VAddr, length param.VSize) ([]bool, error)
}

// Booter creates a System on a machine; each VM package exports one so
// experiments can be written generically over the pair.
type Booter func(*Machine) System
