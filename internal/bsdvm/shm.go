package bsdvm

import (
	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// System V shared memory under BSD VM: a stand-alone anonymous vm_object
// mapped shared by each attachment.

type shmSegment struct {
	sys    *System
	obj    *object
	npages int
}

// NewShmSegment implements vmapi.System.
func (s *System) NewShmSegment(npages int) (vmapi.ShmSegment, error) {
	if npages <= 0 {
		return nil, vmapi.ErrInvalid
	}
	s.big.Lock()
	defer s.big.Unlock()
	return &shmSegment{sys: s, obj: s.newObject(npages, true), npages: npages}, nil
}

// Pages implements vmapi.ShmSegment.
func (seg *shmSegment) Pages() int { return seg.npages }

// Attach implements vmapi.ShmSegment.
func (seg *shmSegment) Attach(pi vmapi.Process, prot param.Prot) (param.VAddr, error) {
	p, ok := pi.(*process)
	if !ok || p.sys != seg.sys {
		return 0, vmapi.ErrInvalid
	}
	if p.exited {
		return 0, vmapi.ErrExited
	}
	s := seg.sys
	s.big.Lock()
	defer s.big.Unlock()
	if seg.obj == nil {
		return 0, vmapi.ErrInvalid
	}
	m := p.m
	m.lock()
	length := param.VSize(seg.npages) * param.PageSize
	va, err := m.FindSpace(param.MmapHintBase, length)
	if err != nil {
		return 0, err
	}
	e := s.allocEntry(m)
	e.Start, e.End = va, va+param.VAddr(length)
	e.obj = seg.obj
	seg.obj.refs++
	e.prot = param.ProtRW // two-step: default first...
	e.maxProt = param.ProtRWX
	e.inherit = param.InheritShare
	m.Insert(e)
	s.mach.Stats.BsdShmAttach.Inc()
	if prot != param.ProtRW {
		// ...then the second pass for non-default protections.
		err := m.protect(va, va+param.VAddr(length), prot)
		m.lock()
		if err != nil {
			return 0, err
		}
	}
	return va, nil
}

// Release implements vmapi.ShmSegment.
func (seg *shmSegment) Release() {
	if seg.obj == nil {
		return
	}
	s := seg.sys
	s.big.Lock()
	defer s.big.Unlock()
	s.deallocate(seg.obj)
	seg.obj = nil
}
