package uvm

import (
	"sync"

	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// System V shared memory support (§5: anonymous memory is used "for
// System V shared memory"). A segment is an aobj; attachments are shared
// mappings of it. The uvm_object reference count keeps the segment (and
// its swap) alive until the last attachment and the creation reference
// are gone.

type shmSegment struct {
	sys    *System
	npages int

	// mu guards obj against a concurrent Attach/Release; held across the
	// target map lock in Attach.
	//uvm:lock shmseg
	mu  sync.Mutex
	obj *uobject
}

// NewShmSegment implements vmapi.System.
func (s *System) NewShmSegment(npages int) (vmapi.ShmSegment, error) {
	if npages <= 0 {
		return nil, vmapi.ErrInvalid
	}
	return &shmSegment{sys: s, obj: s.newAObj(npages), npages: npages}, nil
}

// Pages implements vmapi.ShmSegment.
func (seg *shmSegment) Pages() int { return seg.npages }

// Attach implements vmapi.ShmSegment.
func (seg *shmSegment) Attach(pi vmapi.Process, prot param.Prot) (param.VAddr, error) {
	p, ok := pi.(*Process)
	if !ok || p.sys != seg.sys {
		return 0, vmapi.ErrInvalid
	}
	if p.exited.Load() {
		return 0, vmapi.ErrExited
	}
	s := seg.sys
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if seg.obj == nil {
		return 0, vmapi.ErrInvalid
	}
	m := p.m
	m.lock()
	defer m.unlock()
	// Re-check under the map lock (see Mmap): an attach racing Exit's
	// teardown would leak the entry and its object reference.
	if p.exited.Load() {
		return 0, vmapi.ErrExited
	}
	length := param.VSize(seg.npages) * param.PageSize
	va, err := m.FindSpace(param.MmapHintBase, length)
	if err != nil {
		return 0, err
	}
	e := s.allocEntry(m)
	e.Start, e.End = va, va+param.VAddr(length)
	e.obj = seg.obj
	s.objRef(seg.obj)
	e.prot, e.maxProt = prot, param.ProtRWX
	e.inherit = param.InheritShare
	m.Insert(e)
	s.mach.Stats.ShmAttach.Inc()
	return va, nil
}

// Release implements vmapi.ShmSegment.
func (seg *shmSegment) Release() {
	seg.mu.Lock()
	obj := seg.obj
	seg.obj = nil
	seg.mu.Unlock()
	if obj == nil {
		return
	}
	seg.sys.objUnref(obj)
}
