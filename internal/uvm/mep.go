package uvm

import (
	"uvm/internal/param"
	"uvm/internal/vmapi"
)

// Map entry passing (§7): processes (and the kernel) exchange whole
// chunks of virtual address space by moving the high-level mapping
// structures, not pages. The per-page cost is therefore near zero — lower
// than loanout or transfer — at the price of possible map entry
// fragmentation when used on small ranges, and of being unusable for
// DMA-style kernel consumers.

// CopyMode selects the semantics of an exported range.
type CopyMode int

const (
	// ExportShare gives the importer shared access: stores are mutually
	// visible.
	ExportShare CopyMode = iota
	// ExportCopy gives the importer a copy-on-write copy.
	ExportCopy
	// ExportDonate moves the range: it disappears from the exporter.
	ExportDonate
)

// MapToken carries exported mappings between processes. It holds
// references on the underlying amaps and objects until imported or
// released. Single use.
type MapToken struct {
	sys    *System
	pieces []tokenPiece
	used   bool
}

type tokenPiece struct {
	length param.VSize

	amap    *amap
	amapOff int
	obj     *uobject
	off     param.PageOff

	prot, maxProt  param.Prot
	advice         param.Advice
	cow, needsCopy bool
}

// TotalSize returns the address-space size the token carries.
func (t *MapToken) TotalSize() param.VSize {
	var sum param.VSize
	for _, pc := range t.pieces {
		sum += pc.length
	}
	return sum
}

// Export packages [addr, addr+length) of p's address space into a token.
func (p *Process) Export(addr param.VAddr, length param.VSize, mode CopyMode) (*MapToken, error) {
	if p.exited.Load() {
		return nil, vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || !param.PageAligned(addr) || length == 0 {
		return nil, vmapi.ErrInvalid
	}
	s := p.sys

	m := p.m
	m.lock()
	entries := m.EntriesIn(start, end)
	if len(entries) == 0 {
		m.unlock()
		return nil, vmapi.ErrFault
	}
	tok := &MapToken{sys: s}
	var donated []*entry
	for _, e := range entries {
		// Sharing (or COW-exporting) a needs-copy entry requires a real
		// amap so both sides reference the same anons (§5.4).
		if e.needsCopy && mode != ExportDonate {
			s.amapCopy(m, e)
		}
		pc := tokenPiece{
			length:    param.VSize(e.End - e.Start),
			amap:      e.amap,
			amapOff:   e.amapOff,
			obj:       e.obj,
			off:       e.off,
			prot:      e.prot,
			maxProt:   e.maxProt,
			advice:    e.advice,
			cow:       e.cow,
			needsCopy: e.needsCopy,
		}
		switch mode {
		case ExportShare:
			if e.amap != nil {
				s.amapRef(e.amap)
			}
			if e.obj != nil {
				s.objRef(e.obj)
			}
		case ExportCopy:
			// Both sides go copy-on-write over the shared amap — the
			// "copy-on-write area becoming shared with another process"
			// situation the paper notes map entry passing must handle.
			pc.cow, pc.needsCopy = true, true
			if e.cow {
				e.needsCopy = true
				p.pm.Protect(e.Start, e.End, e.prot&^param.ProtWrite)
			}
			if e.amap != nil {
				s.amapRef(e.amap)
			}
			if e.obj != nil {
				s.objRef(e.obj)
			}
		case ExportDonate:
			// The references move into the token.
			m.Unlink(e)
			m.pmap.Remove(e.Start, e.End)
			donated = append(donated, e)
		default:
			m.unlock()
			return nil, vmapi.ErrInvalid
		}
		tok.pieces = append(tok.pieces, pc)
	}
	m.unlock()
	for _, e := range donated {
		s.freeEntry(m, e)
	}
	s.mach.Stats.MepExports.Inc()
	return tok, nil
}

// Import maps a token's contents into p's address space at a
// kernel-chosen address and consumes the token.
func (p *Process) Import(tok *MapToken) (param.VAddr, error) {
	if p.exited.Load() {
		return 0, vmapi.ErrExited
	}
	if tok == nil || tok.used || tok.sys != p.sys {
		return 0, vmapi.ErrInvalid
	}
	s := p.sys

	m := p.m
	m.lock()
	// Re-check under the map lock (see Mmap): imports racing Exit's
	// teardown would leak the token's mappings.
	if p.exited.Load() {
		m.unlock()
		return 0, vmapi.ErrExited
	}
	base, err := m.FindSpace(param.MmapHintBase, tok.TotalSize())
	if err != nil {
		m.unlock()
		return 0, err
	}
	va := base
	for _, pc := range tok.pieces {
		e := s.allocEntry(m)
		e.Start, e.End = va, va+param.VAddr(pc.length)
		e.amap, e.amapOff = pc.amap, pc.amapOff
		e.obj, e.off = pc.obj, pc.off
		e.prot, e.maxProt = pc.prot, pc.maxProt
		e.advice = pc.advice
		e.inherit = param.InheritCopy
		e.cow, e.needsCopy = pc.cow, pc.needsCopy
		m.Insert(e)
		va = e.End
	}
	m.unlock()
	tok.used = true
	tok.pieces = nil
	s.mach.Stats.MepImports.Inc()
	return base, nil
}

// Release drops an unimported token's references.
func (t *MapToken) Release() {
	if t.used {
		return
	}
	t.used = true
	s := t.sys
	for _, pc := range t.pieces {
		if pc.amap != nil {
			s.amapUnref(pc.amap)
		}
		if pc.obj != nil {
			s.objUnref(pc.obj)
		}
	}
	t.pieces = nil
}
