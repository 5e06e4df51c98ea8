package bsdvm

import (
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// reclaim is the BSD VM pagedaemon: scan the inactive queue and free
// pages, writing each dirty page to backing store with its own I/O
// operation. No clustering, no slot reassignment — every dirty anonymous
// page goes to whatever fixed slot its object's swap block dictates
// (contrast with UVM's pagedaemon, §6 / Figure 5).
func (s *System) reclaim(target int) error {
	freed := 0
	for pass := 0; pass < 4 && freed < target; pass++ {
		if s.mach.Mem.InactivePages() < target*2 {
			s.mach.Mem.RefillInactive(target * 2)
		}
		s.mach.Mem.ScanInactive(target*4, func(pg *phys.Page) bool {
			if freed >= target {
				return false
			}
			o, ok := pg.Owner().(*object)
			if !ok {
				return true
			}
			if pg.Referenced.Load() {
				s.mach.Mem.Activate(pg)
				return true
			}
			// Pull the page out of every address space before touching it.
			s.mach.MMU.PageProtect(pg, param.ProtNone)
			if pg.Dirty.Load() {
				if err := s.pageout(o, pg); err != nil {
					// Could not clean (e.g. out of swap): put it back and
					// keep scanning.
					s.mach.Mem.Activate(pg)
					return true
				}
			}
			o.pages.Delete(param.OffToPage(pg.Off()))
			s.mach.Mem.Dequeue(pg)
			s.mach.Mem.Free(pg)
			freed++
			return true
		})
	}
	if freed == 0 {
		// A fruitless scan is not a deadlock while free frames sit parked
		// in per-CPU allocation magazines (phys caches enabled): reap
		// them into the global pool so the retry can reach them.
		if s.mach.Mem.ReapCaches() == 0 {
			return vmapi.ErrDeadlock
		}
		return nil
	}
	s.mach.Stats.BsdPagedaemonFreed.Add(int64(freed))
	return nil
}
