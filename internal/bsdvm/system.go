// Package bsdvm implements the 4.4BSD virtual memory system — the
// Mach-derived baseline the paper replaces. It is built faithfully enough
// to exhibit every behaviour the paper criticises:
//
//   - copy-on-write via shadow object chains, with the collapse operation
//     run after copy faults and reference drops (§5.1, §5.3);
//   - the swap memory leak: inaccessible redundant pages survive inside
//     chains and pin swap space (§5.3) — demonstrable by disabling
//     collapse, and present in attenuated form even with it;
//   - two-step memory mapping: entries are inserted with default
//     attributes and a second lock/lookup pass changes them (§3.1);
//   - the unmap operation that holds the map lock while object references
//     are dropped, including any resulting I/O (§3.1);
//   - separately allocated pager structures (vm_pager + vn_pager) and the
//     pager hash table (§6);
//   - a private 100-entry cache of unreferenced memory objects that holds
//     vnode references and fights the vnode LRU (§4, Figure 2);
//   - one-page-at-a-time pageout with fixed per-object swap blocks (§6,
//     Figure 5);
//   - map entry fragmentation from all five wiring paths: user structure,
//     sysctl, physio, mlock, and i386 page-table pages (§3.2, Table 1).
//
// Concurrency note: the simulation serialises each System's operations
// behind one Go mutex (like a pre-SMP kernel). The fine-grained locking
// costs of the real systems are *charged* to the simulated clock at the
// points the real code would take its map and object locks, so lock-cost
// comparisons (one-step vs two-step mapping, one- vs two-phase unmap)
// remain meaningful.
package bsdvm

import (
	"sync"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// Config tunes the baseline system. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// ObjCacheLimit is the maximum number of unreferenced memory objects
	// cached by the VM system (the hundred-object limit of §4).
	ObjCacheLimit int
	// DisableCollapse turns off the object-chain collapse operation. Used
	// by the swap-leak demonstration; never set in normal comparisons.
	DisableCollapse bool
	// DisableObjCache turns off the VM object cache entirely (ablation).
	DisableObjCache bool
	// KernelEntryPool is the fixed number of kernel map entries available;
	// exhaustion panics, as the paper notes ("if this pool is exhausted
	// the system will panic").
	KernelEntryPool int
}

// reclaimBatch is how many pages one pagedaemon activation tries to
// free.
const reclaimBatch = 32

// DefaultConfig mirrors 4.4BSD defaults.
func DefaultConfig() Config {
	return Config{
		ObjCacheLimit:   100,
		KernelEntryPool: 4000,
	}
}

// System is a booted BSD VM instance.
type System struct {
	mach *vmapi.Machine
	cfg  Config

	// big is the "kernel lock": serialises public entry points.
	//uvm:lock system
	big sync.Mutex

	kmap      *vmMap
	kentryUse int

	pagerHash map[*vmPager]*object // the pager -> object hash table (§6)
	cache     objCache
	nextObjID int
	procs     map[*process]struct{}
}

// Boot boots BSD VM on machine m with default configuration.
func Boot(m *vmapi.Machine) vmapi.System { return BootConfig(m, DefaultConfig()) }

// BootConfig boots with an explicit configuration.
func BootConfig(m *vmapi.Machine, cfg Config) *System {
	s := &System{
		mach:      m,
		cfg:       cfg,
		pagerHash: make(map[*vmPager]*object),
		procs:     make(map[*process]struct{}),
	}
	s.cache.limit = cfg.ObjCacheLimit
	s.kmap = s.newMap("kernel", param.KernelBase, param.KernelMax, true)

	// The kernel's own text, data and bss segments: three wired entries
	// present on both systems.
	for _, seg := range []struct {
		pages int
		prot  param.Prot
	}{{300, param.ProtRX}, {80, param.ProtRW}, {120, param.ProtRW}} {
		if _, err := s.kernelAllocLocked(seg.pages, seg.prot); err != nil {
			panic("bsdvm: kernel boot allocation failed: " + err.Error())
		}
	}
	return s
}

// Name implements vmapi.System.
func (s *System) Name() string { return "bsdvm" }

// Machine implements vmapi.System.
func (s *System) Machine() *vmapi.Machine { return s.mach }

// Shutdown implements vmapi.System. The big-lock baseline starts no
// kernel threads — its pagedaemon runs inline in allocating goroutines,
// faithful to the paper-era system — so there is nothing to stop.
func (s *System) Shutdown() {}

// KernelAlloc implements vmapi.System: each boot-time wired allocation
// consumes a fresh kernel map entry — BSD VM never coalesces.
func (s *System) KernelAlloc(npages int, prot param.Prot) (param.VAddr, error) {
	s.big.Lock()
	defer s.big.Unlock()
	return s.kernelAllocLocked(npages, prot)
}

func (s *System) kernelAllocLocked(npages int, prot param.Prot) (param.VAddr, error) {
	s.kmap.lock()
	va, err := s.kmap.FindSpace(0, param.VSize(npages)*param.PageSize)
	if err != nil {
		return 0, err
	}
	e := s.allocEntry(s.kmap)
	e.Start, e.End = va, va+param.VAddr(npages)*param.PageSize
	e.prot, e.maxProt = prot, param.ProtRWX
	e.wired = 1
	s.kmap.Insert(e)
	return va, nil
}

// KernelMapEntries implements vmapi.System.
func (s *System) KernelMapEntries() int {
	s.big.Lock()
	defer s.big.Unlock()
	return s.kmap.Len()
}

// TotalMapEntries implements vmapi.System.
func (s *System) TotalMapEntries() int {
	s.big.Lock()
	defer s.big.Unlock()
	total := s.kmap.Len()
	//uvm:maporder-ok summing counts; order-independent
	for p := range s.procs {
		if p.vforked {
			continue // shares its parent's map; counting it would double
		}
		total += p.m.Len()
	}
	return total
}

// objCacheSize reports the number of objects in the VM object cache
// (test/experiment helper).
func (s *System) objCacheSize() int {
	s.big.Lock()
	defer s.big.Unlock()
	return s.cache.size()
}
