package uvm

import (
	"errors"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/vmapi"
)

// TestAObjPageinRacesFreeRange is the regression test for the
// free-during-pagein race: aobjPager.get used to capture the page's swap
// slot and then let allocObjPageLocked drop o.mu around the frame
// allocation. In that window a concurrent holder of o.mu can reassign
// the slot — freeing the old one with FreeRange — so the captured slot
// is stale and the pagein reads freed (or by then reallocated) disk
// blocks.
//
// The window is a few hundred nanoseconds when memory is free, so a
// blind stress loop never lands in it (and on a single-CPU host never
// can). The test instead constructs the interleaving deterministically:
//
//  1. the free list is drained to zero with the test holding the
//     single-flight reclaim slot, so get's allocation must wait for the
//     held pass — with o.mu dropped;
//  2. a reassigner goroutine, parked on o.mu, then gets the lock, moves
//     the backing copy to a fresh slot, frees the old one with
//     FreeRange, and only then runs the held pass;
//  3. the pass reclaims, the waiting allocation resumes, and get
//     re-acquires o.mu.
//
// The slot ordering guarantees the reassignment happens inside get's
// window on any GOMAXPROCS. The fixed get re-reads idx's aobj slot under
// the re-acquired lock and returns the right data; the unfixed one reads
// the freed slot.
func TestAObjPageinRacesFreeRange(t *testing.T) {
	s, m := bootTest(t, 96)
	o := s.newAObj(1)

	// Victim region: 2x RAM of evictable anon pages for the held pass to
	// reclaim while the test's pagein waits for a frame.
	victim := newProc(t, s, "victim")
	const victimPages = 192
	vva, err := victim.Mmap(0, victimPages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	type grabOwner struct{}
	var grabbed []*phys.Page
	fill := func(slot int64) []byte {
		buf := make([]byte, param.PageSize)
		for i := range buf {
			buf[i] = byte(slot)
		}
		return buf
	}
	// Seed: content lives on swap only.
	slot, err := m.Swap.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Swap.WriteCluster(slot, [][]byte{fill(slot)}); err != nil {
		t.Fatal(err)
	}
	o.aobjSlots.Set(0, slot)

	for iter := 0; iter < 4; iter++ {
		// Stock the queues with evictable pages, then hold the reclaim
		// slot and drain the free list to zero: the next allocation must
		// wait on the held pass.
		if err := victim.TouchRange(vva, victimPages*param.PageSize, true); err != nil {
			t.Fatal(err)
		}
		finish := holdReclaim(s)
		for {
			pg, err := m.Mem.Alloc(&grabOwner{}, 0, false)
			if errors.Is(err, phys.ErrNoMemory) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			grabbed = append(grabbed, pg)
		}

		o.mu.Lock()
		done := make(chan struct{})
		go func() {
			// Reassigner: acquires o.mu the moment get drops it (get
			// itself waits on the held pass until we run it, so this
			// cannot run late), moves the backing copy to a fresh slot
			// and frees the old one — what pageout reassignment does —
			// then runs the held pass.
			defer close(done)
			o.mu.Lock()
			defer o.mu.Unlock()
			defer finish()
			if _, resident := o.pages.Get(0); resident {
				t.Error("page resident before the gated pagein ran")
				return
			}
			old, _ := o.aobjSlots.Get(0)
			ns, err := m.Swap.Alloc()
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.Swap.WriteCluster(ns, [][]byte{fill(ns)}); err != nil {
				t.Error(err)
				return
			}
			o.aobjSlots.Set(0, ns)
			m.Swap.FreeRange(old, 1)
		}()

		pg, err := o.ops.get(o, 0, 0, 0)
		if err != nil {
			o.mu.Unlock()
			t.Fatalf("iter %d: pagein: %v", iter, err)
		}
		<-done
		cur, _ := o.aobjSlots.Get(0)
		if pg.Data()[0] != byte(cur) || pg.Data()[param.PageSize-1] != byte(cur) {
			t.Fatalf("iter %d: stale pagein: object points at slot %d (pattern %#x) but page holds %#x",
				iter, cur, byte(cur), pg.Data()[0])
		}
		// Evict and release the drained frames for the next iteration.
		o.pages.Delete(0)
		pg.Dirty.Store(false)
		s.mach.Mem.Dequeue(pg)
		s.mach.Mem.Free(pg)
		o.mu.Unlock()
		for _, g := range grabbed {
			m.Mem.Free(g)
		}
		grabbed = grabbed[:0]
	}
}
