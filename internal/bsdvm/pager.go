package bsdvm

import (
	"math"

	"uvm/internal/pageidx"
	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vfs"
	"uvm/internal/vmapi"
)

// swapBlockPages is the fixed clustering of the BSD VM swap pager: swap
// is allocated in blocks of contiguous slots covering aligned groups of
// object pages (§5.3: "pages are clustered together into swap blocks...
// each allocated swap block contains a pointer to a location on backing
// store"). A page's slot within its block is fixed once the block exists —
// BSD VM cannot reassign pageout locations, which is why its pageout
// cannot cluster scattered dirty pages (§6).
const swapBlockPages = 16

// vmPager is the separately allocated pager structure of BSD VM, pointing
// at pager operations and a pager-private structure (vn_pager or the swap
// pager state). UVM eliminates this allocation entirely.
type vmPager struct {
	vn  *vfs.Vnode // vnode pager private data
	swp *swapPager // swap pager private data
}

// swapPager tracks an anonymous object's swap blocks. Ownership is
// explicit: a pager frees the blocks it allocated itself minus any
// slots ceded to a collapse adopter, plus the slots it adopted from
// collapsed shadows (those are owned one slot at a time — the rest of
// the donor's block stayed with the donor).
type swapPager struct {
	sys     *System
	blocks  pageidx.Index[int64] // block index -> first slot of blocks this pager allocated
	slots   pageidx.Index[int64] // page index -> assigned slot
	adopted map[int64]bool       // slots taken over from collapsed shadows, owned individually
	ceded   map[int64]bool       // slots inside our blocks whose ownership moved to an adopter
}

// newVnodePager allocates the vm_pager + vn_pager pair for a file.
func (s *System) newVnodePager(vn *vfs.Vnode) *vmPager {
	s.mach.Clock.Advance(s.mach.Costs.PagerAlloc)
	s.mach.Stats.BsdPagerAlloc.Inc()
	return &vmPager{vn: vn}
}

// ensureSwapPager lazily creates an anonymous object's swap pager on first
// pageout.
func (s *System) ensureSwapPager(o *object) {
	if o.pager != nil {
		return
	}
	s.mach.Clock.Advance(s.mach.Costs.PagerAlloc)
	s.mach.Stats.BsdPagerAlloc.Inc()
	o.pager = &vmPager{swp: &swapPager{
		sys:     s,
		adopted: make(map[int64]bool),
		ceded:   make(map[int64]bool),
	}}
	s.hashInsert(o.pager, o)
}

// hashInsert and hashLookup model the pager hash table that maps pager
// structures to the objects they back; every probe is charged.
func (s *System) hashInsert(p *vmPager, o *object) {
	s.mach.Clock.Advance(s.mach.Costs.HashLookup)
	s.pagerHash[p] = o
}

func (s *System) hashRemove(p *vmPager) {
	s.mach.Clock.Advance(s.mach.Costs.HashLookup)
	delete(s.pagerHash, p)
}

// destroyPager releases pager structures and any swap space they hold:
// the pager's own blocks (minus ceded slots, which an adopter now owns)
// and its individually adopted slots.
func (s *System) destroyPager(p *vmPager) {
	if p.swp != nil {
		for _, start := range p.swp.blocks.Range(0, math.MaxInt) {
			if len(p.swp.ceded) == 0 {
				s.mach.Swap.FreeRange(start, swapBlockPages)
				continue
			}
			for i := int64(0); i < swapBlockPages; i++ {
				if !p.swp.ceded[start+i] {
					s.mach.Swap.Free(start + i)
				}
			}
		}
		//uvm:maporder-ok swap frees clear bitmap bits; next-fit allocation sees only the free set
		for slot := range p.swp.adopted {
			s.mach.Swap.Free(slot)
		}
		*p.swp = swapPager{sys: s}
	}
	s.hashRemove(p)
}

// hasSlot reports whether page idx has swap data.
func (sp *swapPager) hasSlot(idx int) bool {
	_, ok := sp.slots.Get(idx)
	return ok
}

// slotFor returns page idx's swap slot, allocating the covering block on
// first use. The slot is fixed: idx always maps to the same position in
// its block.
func (sp *swapPager) slotFor(idx int) (int64, error) {
	if slot, ok := sp.slots.Get(idx); ok {
		return slot, nil
	}
	blk := idx / swapBlockPages
	start, ok := sp.blocks.Get(blk)
	if !ok {
		var err error
		start, err = sp.sys.mach.Swap.AllocContig(swapBlockPages)
		if err != nil {
			return 0, err
		}
		sp.blocks.Set(blk, start)
	}
	slot := start + int64(idx%swapBlockPages)
	sp.slots.Set(idx, slot)
	return slot, nil
}

// adopt takes over one slot moved up from a collapsing shadow. The slot
// keeps its disk location; ownership moves with it, one slot at a time
// — the donor cedes exactly this slot (the rest of its block stays the
// donor's and dies with it), and the adopter will free it individually.
// Block-granular transfer is wrong twice over: the donor's destroy
// would free the whole block out from under the adopted slots, and the
// adopter cannot even name the donor's block start when the shadow
// offset is not block-aligned.
func (sp *swapPager) adopt(idx int, slot int64, donor *swapPager) {
	sp.slots.Set(idx, slot)
	sp.adopted[slot] = true
	if donor.adopted[slot] {
		// The donor itself adopted this slot from a deeper shadow; the
		// individual ownership just moves up another level.
		delete(donor.adopted, slot)
	} else {
		donor.ceded[slot] = true
	}
}

// pagerHas reports whether o's pager holds data for page idx.
func (s *System) pagerHas(o *object, idx int) bool {
	if o.pager == nil {
		return false
	}
	if o.pager.vn != nil {
		return idx >= 0 && idx < o.pager.vn.NumPages()
	}
	if o.pager.swp != nil {
		return o.pager.swp.hasSlot(idx)
	}
	return false
}

// pagein brings page idx of o in from backing store — one page per I/O,
// the BSD VM way. In BSD VM the faulting code allocates the page and then
// asks the pager to fill it (the pager never allocates; contrast with
// UVM's pager-allocates API, §6).
func (s *System) pagein(o *object, idx int) (*phys.Page, error) {
	pg, err := s.allocPage(o, idx, false)
	if err != nil {
		return nil, err
	}
	pg.Busy.Store(true)
	var block [1][]byte
	if o.pager.vn != nil {
		err = o.pager.vn.ReadBlocks(idx, block[:])
	} else {
		slot, _ := o.pager.swp.slots.Get(idx)
		err = s.mach.Swap.ReadBlocks(slot, block[:])
	}
	pg.Busy.Store(false)
	if err != nil {
		o.pages.Delete(idx)
		s.mach.Mem.Free(pg)
		return nil, err
	}
	pg.Share(block[0])
	pg.Dirty.Store(o.anon) // anon data only lives on swap until written back again
	// The page is resident in o now, so it must live on the paging
	// queues regardless of what the fault maps: when the fault copies
	// this page up (COW) it activates only the copy, and a frame left
	// off-queue is invisible to the pagedaemon forever — enough churn
	// strands all of RAM that way and allocation deadlocks spuriously.
	s.mach.Mem.Activate(pg)
	s.mach.Stats.PageIns.Inc()
	return pg, nil
}

// pageout writes one dirty page to backing store — one page, one I/O
// (§1.1: "I/O operations in BSD VM are performed one page at a time").
func (s *System) pageout(o *object, pg *phys.Page) error {
	idx := param.OffToPage(pg.Off())
	pg.Busy.Store(true)
	defer func() { pg.Busy.Store(false) }()
	if o.vnode != nil && !o.anon {
		if err := o.vnode.WriteBlocks(idx, [][]byte{pg.Freeze()}); err != nil {
			return err
		}
	} else {
		s.ensureSwapPager(o)
		slot, err := o.pager.swp.slotFor(idx)
		if err != nil {
			return err
		}
		if err := s.mach.Swap.WriteBlocks(slot, [][]byte{pg.Freeze()}); err != nil {
			return err
		}
	}
	pg.Dirty.Store(false)
	s.mach.Stats.PageOuts.Inc()
	return nil
}

// allocPage allocates a frame for page idx of o, running the pagedaemon on
// memory shortage.
func (s *System) allocPage(o *object, idx int, zero bool) (*phys.Page, error) {
	for attempt := 0; ; attempt++ {
		pg, err := s.mach.Mem.Alloc(o, param.PageToOff(idx), zero)
		if err == nil {
			o.pages.Set(idx, pg)
			return pg, nil
		}
		if attempt >= 3 {
			return nil, vmapi.ErrDeadlock
		}
		if rerr := s.reclaim(reclaimBatch); rerr != nil {
			return nil, rerr
		}
	}
}
