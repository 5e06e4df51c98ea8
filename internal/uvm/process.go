package uvm

import (
	"sync"
	"sync/atomic"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// Process is a UVM process. It is exported (unlike bsdvm's) because the
// data movement mechanisms of §7 — Loanout, Transfer, Export/Import — are
// UVM-only extensions beyond the common vmapi.Process interface.
type Process struct {
	sys  *System
	name string

	m  *vmMap
	pm *pmap.Pmap

	exited atomic.Bool
	// vforked marks a child sharing its parent's map; set before the
	// process is registered, immutable afterwards.
	vforked bool

	// uareaWired counts the pages of the user structure / kernel stack,
	// whose wired state lives here in the proc structure — NOT in the
	// kernel map (§3.2).
	uareaWired int

	// wireMu guards kstackWires: two kernel paths (sysctl, physio) may
	// wire buffers of the same process concurrently.
	//uvm:lock leaf
	wireMu sync.Mutex
	// kstackWires records buffer ranges temporarily wired by sysctl and
	// physio; the record lives "on the kernel stack" (§3.2), never in the
	// map.
	kstackWires []struct {
		start, end param.VAddr
	}

	// ptPages counts i386 page-table pages; under UVM their wired state
	// is recorded only in the pmap (here mirrored as a counter), never as
	// map entries.
	ptPages atomic.Int32
}

// NewProcess implements vmapi.System.
func (s *System) NewProcess(name string) (vmapi.Process, error) {
	p, err := s.newProc(name)
	if err != nil {
		return nil, err
	}
	s.addProc(p)
	return p, nil
}

// newProc creates (but does not register) a process.
func (s *System) newProc(name string) (*Process, error) {
	p := &Process{sys: s, name: name}
	p.m = s.newMap(name, param.UserTextBase, param.UserMax, false)
	p.pm = p.m.pmap

	// i386 page-table wiring: pmap-only bookkeeping (§3.2).
	p.pm.OnPTAlloc = func() { p.ptPages.Add(1) }
	p.pm.OnPTFree = func() {
		for {
			n := p.ptPages.Load()
			if n <= 0 {
				return
			}
			if p.ptPages.CompareAndSwap(n, n-1) {
				return
			}
		}
	}

	// User structure + kernel stack: allocated from the pre-wired uarea
	// arena; the wired state is recorded in the proc structure, consuming
	// zero kernel map entries (§3.2). The arena pages still have to be
	// claimed and cleared — identical work on both systems.
	p.uareaWired = 4
	s.mach.Clock.ChargeN(p.uareaWired, s.mach.Costs.PageAlloc)
	s.mach.Clock.ChargeN(p.uareaWired, s.mach.Costs.PageZero)
	return p, nil
}

// Name implements vmapi.Process.
func (p *Process) Name() string { return p.name }

// Exited implements vmapi.Process.
func (p *Process) Exited() bool { return p.exited.Load() }

// MapEntryCount implements vmapi.Process.
func (p *Process) MapEntryCount() int {
	p.m.mu.RLock()
	defer p.m.mu.RUnlock()
	return p.m.Len()
}

// Mincore implements vmapi.Process: per-page residency of the range.
func (p *Process) Mincore(addr param.VAddr, length param.VSize) ([]bool, error) {
	if p.exited.Load() {
		return nil, vmapi.ErrExited
	}
	return vmapi.Mincore(addr, length, p.mapped)
}

// Mmap implements vmapi.Process — in one step. The entry is created with
// its final protection, inheritance and advice under a single lock
// acquisition; there is no window where the mapping exists with wrong
// attributes (§3.1).
func (p *Process) Mmap(addr param.VAddr, length param.VSize, prot param.Prot,
	flags vmapi.MapFlags, vn *vfs.Vnode, off param.PageOff) (param.VAddr, error) {

	if p.exited.Load() {
		return 0, vmapi.ErrExited
	}
	length, err := vmapi.MmapArgs(addr, length, flags, vn, off)
	if err != nil {
		return 0, err
	}

	s := p.sys
	m := p.m
	m.lock()
	// Re-check under the map lock: a concurrent Exit may have torn the
	// space down after the entry check above, and an insert now would
	// never be unmapped.
	if p.exited.Load() {
		m.unlock()
		return 0, vmapi.ErrExited
	}
	var removed []*entry
	var va param.VAddr
	if flags&vmapi.MapFixed != 0 {
		removed = m.unmapPhase1(addr, addr+param.VAddr(length))
		va = addr
	} else {
		va, err = m.FindSpace(addr, length)
		if err != nil {
			m.unlock()
			return 0, err
		}
	}

	private := flags&vmapi.MapPrivate != 0
	e := s.allocEntry(m)
	e.Start, e.End = va, va+param.VAddr(length)
	e.prot = prot // the requested protection, set in one step
	e.maxProt = param.ProtRWX
	e.off = off
	if private {
		e.inherit = param.InheritCopy
	} else {
		e.inherit = param.InheritShare
	}
	switch {
	case flags&vmapi.MapAnon != 0 && private:
		// Zero-fill: null object, amap allocated lazily (needs-copy).
		e.cow, e.needsCopy = true, true
	case flags&vmapi.MapAnon != 0:
		// Shared anonymous memory: an aobj backs it.
		e.obj = s.newAObj(param.Pages(length))
	case private:
		// Private file mapping: object below, amap (lazily) above.
		e.obj = s.vnodeObject(vn)
		e.cow, e.needsCopy = true, true
	default:
		// Shared file mapping: object only.
		e.obj = s.vnodeObject(vn)
	}
	m.Insert(e)
	m.unlock()

	// Fixed-replacement teardown happens after the lock drops (phase 2).
	if len(removed) > 0 {
		s.unmapPhase2(m, removed)
	}
	return va, nil
}

// Munmap implements vmapi.Process with the two-phase structure of §3.1:
// entries leave the map under the lock; references — and any teardown
// I/O — are dropped after it is released.
func (p *Process) Munmap(addr param.VAddr, length param.VSize) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || !param.PageAligned(addr) || length == 0 {
		return vmapi.ErrInvalid
	}
	s := p.sys
	m := p.m
	m.lock()
	removed := m.unmapPhase1(start, end)
	m.unlock()
	s.unmapPhase2(m, removed)
	return nil
}

// Mprotect implements vmapi.Process. The range is clipped to page
// boundaries before entries are split (an entry clipped at a raw,
// unaligned address would corrupt its amap/object geometry).
func (p *Process) Mprotect(addr param.VAddr, length param.VSize, prot param.Prot) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.MappedRange(addr, length)
	if err != nil {
		return err
	}
	return p.m.protect(start, end, prot)
}

// Minherit implements vmapi.Process (§5.4: BSD's minherit is one of the
// mechanisms UVM's amap design had to support beyond SunOS). The range
// is clipped to page boundaries before the entries are split, so the
// inheritance applies to exactly the pages the range touches and never
// bleeds onto the rest of a large entry (clipping an entry at a raw,
// unaligned address would corrupt its amap/object geometry).
func (p *Process) Minherit(addr param.VAddr, length param.VSize, inh param.Inherit) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}
	m := p.m
	m.lock()
	defer m.unlock()
	for _, e := range m.EntriesIn(start, end) {
		e.inherit = inh
	}
	return nil
}

// Madvise implements vmapi.Process; UVM's fault handler uses the advice to
// size its lookahead window (§5.4). Like Minherit, the range is clipped
// to page boundaries so the advice covers exactly the pages it names.
func (p *Process) Madvise(addr param.VAddr, length param.VSize, adv param.Advice) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}
	m := p.m
	m.lock()
	defer m.unlock()
	for _, e := range m.EntriesIn(start, end) {
		e.advice = adv
	}
	return nil
}

// Msync implements vmapi.Process: dirty object pages of the range — file
// pages and shared-anonymous (aobj) pages alike — are written to backing
// store before it returns. The map lock is held only while the
// overlapping (object, index-range) spans are collected (each object
// referenced so it cannot die mid-flush); the flushes themselves run
// with the map unlocked, through the object writeback pipeline: each
// span leaves as contiguous-index clusters in deterministic
// ascending-index order — charged to the caller's clock by default, with
// cfg.AsyncWriteback overlapped in the per-backend in-flight window (see
// objwb.go for both). The walk only reads the map, so it takes it shared
// and faults of the process proceed meanwhile.
func (p *Process) Msync(addr param.VAddr, length param.VSize) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}
	s := p.sys
	m := p.m

	type span struct {
		o            *uobject
		loIdx, hiIdx int
	}
	var spans []span
	m.rlock()
	for cur := range m.All() {
		if cur.End <= start || cur.Start >= end || cur.obj == nil {
			continue
		}
		o := cur.obj
		if o.vnode == nil && !o.isAObj() {
			continue // no backing store to sync (device pager)
		}
		// Flush only the object pages the requested range maps.
		lo, hi := max(cur.Start, start), min(cur.End, end)
		s.objRef(o)
		spans = append(spans, span{o: o, loIdx: cur.objIndex(lo), hiIdx: cur.objIndex(hi - 1)})
	}
	m.runlock()

	var firstErr error
	for _, sp := range spans {
		if _, err := s.flushObjectRange(sp.o, sp.loIdx, sp.hiIdx); err != nil && firstErr == nil {
			firstErr = err
		}
		s.objUnref(sp.o)
	}
	return firstErr
}

// Fork implements vmapi.Process per each entry's inheritance (§5.2,
// Figure 3): copy-inherited ranges share the amap under needs-copy in
// both processes, and the parent's resident pages are write-protected.
func (p *Process) Fork(name string) (vmapi.Process, error) {
	if p.exited.Load() {
		return nil, vmapi.ErrExited
	}
	s := p.sys
	child, err := s.newProc(name)
	if err != nil {
		return nil, err
	}
	s.addProc(child)
	pm, cm := p.m, child.m
	cm.home = pm.home // a process tree allocates from one shard
	pm.lock()
	cm.lock()
	for e := range pm.All() {
		switch e.inherit {
		case param.InheritNone:
			continue
		case param.InheritShare:
			// Sharing a needs-copy mapping requires materialising the
			// amap first so both processes genuinely share it (§5.4).
			if e.needsCopy {
				s.amapCopy(pm, e)
			}
			ce := cm.dup(e)
			ce.wired = 0
			cm.Insert(ce)
		case param.InheritCopy:
			ce := cm.dup(e)
			ce.wired = 0
			ce.cow, ce.needsCopy = true, true
			if e.cow {
				// The parent's own view also becomes needs-copy, and its
				// resident pages are write-protected so the next store
				// faults (the shared per-page fork cost, §5.3).
				e.needsCopy = true
				p.pm.Protect(e.Start, e.End, e.prot&^param.ProtWrite)
			}
			cm.Insert(ce)
		}
	}
	cm.unlock()
	pm.unlock()
	s.mach.Stats.Forks.Inc()
	return child, nil
}

// Vfork implements vmapi.Process: the child shares the parent's map and
// pmap; only the uarea is new (the footnote-3 fast path).
func (p *Process) Vfork(name string) (vmapi.Process, error) {
	if p.exited.Load() {
		return nil, vmapi.ErrExited
	}
	if p.vforked {
		return nil, vmapi.ErrInvalid
	}
	s := p.sys
	child, err := s.newProc(name)
	if err != nil {
		return nil, err
	}
	child.m = p.m
	child.pm = p.pm
	child.vforked = true
	s.addProc(child)
	s.mach.Stats.VForks.Inc()
	return child, nil
}

// Exit implements vmapi.Process: two-phase teardown of the whole space.
func (p *Process) Exit() {
	if !p.exited.CompareAndSwap(false, true) {
		return
	}
	s := p.sys

	if !p.vforked {
		m := p.m
		m.lock()
		removed := m.unmapPhase1(param.UserTextBase, param.UserMax)
		m.unlock()
		s.unmapPhase2(m, removed)

		p.pm.RemoveAll()
	}
	p.uareaWired = 0
	p.wireMu.Lock()
	p.kstackWires = nil
	p.wireMu.Unlock()

	s.dropProc(p)
}

// Access implements vmapi.Process.
func (p *Process) Access(addr param.VAddr, write bool) error {
	return p.access(addr, write, nil)
}

// access touches addr, faulting it in if need be. use, when non-nil, is
// the copyin/copyout tail: it runs on the resolved page while that page's
// owner lock is still held, so reclaim cannot evict the page, and
// a fork or loanout cannot write-protect it, between the touch and the
// copy. It is holdPage with the hardware's charges: the translation walk
// (Extract) and the touch; a touch without a tail takes no lock.
func (p *Process) access(addr param.VAddr, write bool, use func(*phys.Page)) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	access := param.ProtRead
	if write {
		access = param.ProtWrite
	}
	s := p.sys
	if pte, ok := p.pm.Extract(addr); ok && pte.Prot.Allows(access) {
		pg := pte.Page
		touch := func() {
			s.mach.Clock.Advance(s.mach.Costs.PageTouch)
			pg.Referenced.Store(true)
			if write {
				pg.Dirty.Store(true)
			}
		}
		if use == nil {
			touch()
			return nil
		}
		if release := p.lockMapped(addr, pg, access); release != nil {
			touch()
			use(pg)
			release()
			return nil
		}
	}
	return s.fault(p, addr, access, use)
}

// holdPage runs fn on the page mapped at va with access, under the
// page's owner lock, so reclaim cannot evict the page, nor a fork
// or loanout write-protect it, while fn runs. It is the one body behind
// every kernel path that must hold the page at a user address — loanout,
// wiring, and (with its own charges) access. A resident page takes one
// lock-and-verify attempt; on any miss the fault handler resolves the
// page and runs fn itself, so the error is the fault's: ErrFault means
// va has no mapping that allows access. The walk is uncharged: the
// callers' costs are their own.
func (p *Process) holdPage(va param.VAddr, access param.Prot, fn func(*phys.Page)) error {
	if pte, ok := p.pm.Lookup(va); ok && pte.Page != nil && pte.Prot.Allows(access) {
		if release := p.lockMapped(va, pte.Page, access); release != nil {
			fn(pte.Page)
			release()
			return nil
		}
	}
	return p.sys.fault(p, va, access, fn)
}

// TouchRange implements vmapi.Process.
func (p *Process) TouchRange(addr param.VAddr, length param.VSize, write bool) error {
	return vmapi.TouchRange(addr, length, write, p.Access)
}

// ReadBytes implements vmapi.Process.
func (p *Process) ReadBytes(addr param.VAddr, buf []byte) error {
	return vmapi.CopyBytes(addr, buf, false, p.access)
}

// WriteBytes implements vmapi.Process.
func (p *Process) WriteBytes(addr param.VAddr, data []byte) error {
	return vmapi.CopyBytes(addr, data, true, p.access)
}

// lockMapped locks whatever structure owns pg — an anon or a uobject;
// an ownerless loaned frame has none — and re-verifies, under that lock,
// that it still owns pg and that va still maps pg with access. It
// returns the release func, or nil if anything changed underneath.
func (p *Process) lockMapped(va param.VAddr, pg *phys.Page, access param.Prot) func() {
	owner := pg.Owner()
	release := func() {}
	switch o := owner.(type) {
	case *anon:
		o.mu.Lock()
		release = o.mu.Unlock
	case *uobject:
		o.mu.Lock()
		release = o.mu.Unlock
	}
	if pte, ok := p.pm.Lookup(va); !owns(owner, pg) || !ok || pte.Page != pg || !pte.Prot.Allows(access) {
		release()
		return nil
	}
	return release
}
