package uvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// This file implements the five wiring paths of §3.2. Four of them store
// the wired state outside the map structure:
//
//  1. kernel text/data/bss — always wired, nothing to record (system.go);
//  2. the user structure — wired state lives in the proc structure
//     (Process.uareaWired);
//  3. sysctl — wired state lives on the kernel stack (kstackWires);
//  4. physio — likewise;
//  5. mlock — the only case that must record wiring in the process map,
//     because there is no other place to store it.
//
// Only path 5 fragments map entries under UVM; under BSD VM paths 2-5 all
// disturb maps (plus the i386 page-table path).

// wirePagesNoMap faults the range resident and wires the pages via the
// pmap and page structures only — the map is never touched. Each page is
// wired under its owner's lock (holdPage), so a concurrent pageout
// cannot take it between the fault and the wire. On failure it unwires
// the pages it wired, so a failed call leaves nothing wired.
func (p *Process) wirePagesNoMap(start, end param.VAddr) error {
	s := p.sys
	for va := start; va < end; va += param.PageSize {
		if err := p.holdPage(va, param.ProtRead, s.wirePage); err != nil {
			p.unwirePagesNoMap(start, va)
			return err
		}
		p.pm.ChangeWiring(va, true)
	}
	return nil
}

// wirePage takes one wiring on pg and takes it off the paging queues.
// Caller holds pg's owner lock.
func (s *System) wirePage(pg *phys.Page) {
	pg.WireCount.Add(1)
	s.mach.Mem.Dequeue(pg)
}

// unwirePagesNoMap reverses wirePagesNoMap.
func (p *Process) unwirePagesNoMap(start, end param.VAddr) {
	s := p.sys
	for va := start; va < end; va += param.PageSize {
		if pte, ok := p.pm.Lookup(va); ok && pte.Page != nil {
			pg := pte.Page
			if release := p.lockMapped(va, pg, param.ProtNone); release != nil {
				if pg.WireCount.Load() > 0 && pg.WireCount.Add(-1) == 0 {
					s.mach.Mem.Activate(pg)
				}
				release()
			}
		}
		p.pm.ChangeWiring(va, false)
	}
}

// Sysctl implements vmapi.Process: the user buffer is wired for the
// duration of the call, with the wired state recorded on the process'
// kernel stack — the map is untouched and no entry fragmentation occurs
// (§3.2). The kernel copies the result out to the wired buffer.
func (p *Process) Sysctl(addr param.VAddr, length param.VSize) error {
	return p.withBufferWired(addr, length, func(pages int) {
		p.sys.mach.Clock.ChargeN(pages, p.sys.mach.Costs.PageTouch)
	})
}

// Physio implements vmapi.Process: raw device I/O with the buffer wired
// through the kernel stack record, not the map (§3.2).
func (p *Process) Physio(addr param.VAddr, length param.VSize) error {
	return p.withBufferWired(addr, length, func(pages int) {
		p.sys.mach.Clock.Advance(p.sys.mach.Costs.DiskOp)
		p.sys.mach.Clock.ChargeN(pages, p.sys.mach.Costs.DiskPageIO)
	})
}

// withBufferWired runs op on the pages of a user buffer while they are
// wired, the wiring recorded on the kernel stack.
func (p *Process) withBufferWired(addr param.VAddr, length param.VSize, op func(pages int)) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.MappedRange(addr, length)
	if err != nil {
		return err
	}
	if err := p.wirePagesNoMap(start, end); err != nil {
		return err
	}
	p.pushKstackWire(start, end)
	op(param.Pages(param.VSize(end - start)))
	p.popKstackWire()
	p.unwirePagesNoMap(start, end)
	return nil
}

func (p *Process) pushKstackWire(start, end param.VAddr) {
	p.wireMu.Lock()
	p.kstackWires = append(p.kstackWires, struct{ start, end param.VAddr }{start, end})
	p.wireMu.Unlock()
}

func (p *Process) popKstackWire() {
	p.wireMu.Lock()
	p.kstackWires = p.kstackWires[:len(p.kstackWires)-1]
	p.wireMu.Unlock()
}

// Mlock implements vmapi.Process: the one wiring path where the wired
// state must live in the map (so it survives arbitrary later syscalls),
// and therefore the one path that fragments UVM map entries too.
func (p *Process) Mlock(addr param.VAddr, length param.VSize) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.MappedRange(addr, length)
	if err != nil {
		return err
	}

	m := p.m
	m.lock()
	entries := m.EntriesIn(start, end)
	if len(entries) == 0 {
		m.unlock()
		return vmapi.ErrFault
	}
	for _, e := range entries {
		e.wired++
	}
	m.unlock()

	if err := p.wirePagesNoMap(start, end); err != nil {
		p.unwireEntries(start, end)
		return err
	}
	return nil
}

// unwireEntries drops one mlock wiring from each map entry in [start, end).
func (p *Process) unwireEntries(start, end param.VAddr) {
	m := p.m
	m.lock()
	for _, e := range m.EntriesIn(start, end) {
		if e.wired > 0 {
			e.wired--
		}
	}
	m.unlock()
}

// Munlock implements vmapi.Process.
func (p *Process) Munlock(addr param.VAddr, length param.VSize) error {
	if p.exited.Load() {
		return vmapi.ErrExited
	}
	start, end, err := vmapi.PageRange(addr, length)
	if err != nil || start == end {
		return err
	}

	p.unwireEntries(start, end)
	p.unwirePagesNoMap(start, end)
	return nil
}
