package uvm

import (
	"sync"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Tests for the per-CPU free-page caches under the full VM stack: racing
// allocators against each other's reclaim passes, and a pass's magazine
// reap rescuing a waiting allocator when the page queues have nothing
// left to give.

func bootCachesTest(t *testing.T, ramPages, caches int) (*System, *vmapi.Machine) {
	t.Helper()
	m := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:    ramPages,
		SwapPages:   int64(ramPages) * 4,
		FSPages:     4096,
		MaxVnodes:   50,
		AllocCaches: caches,
	})
	s := BootConfig(m, DefaultConfig())
	testutil.SweepOnCleanup(t, s)
	return s, m
}

// TestAllocCachesRacingAllocatorsVsPagedaemon overcommits a caches-on
// machine from 8 goroutines at once — 3x RAM of anonymous pages, touched
// twice — so allocation traffic runs through the magazines while the
// allocators' single-flight reclaim passes evict to swap and the others
// wait on them. Every fault must complete: the magazines may never hide
// frames from reclaim or wedge a waiter. Runs in the explicit -race CI
// step.
func TestAllocCachesRacingAllocatorsVsPagedaemon(t *testing.T) {
	const (
		workers     = 8
		ramPages    = 256
		pagesPer    = 96 // workers * pagesPer = 3x RAM
		touchRounds = 2
	)
	s, m := bootCachesTest(t, ramPages, workers)

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := newProc(t, s, "racer")
			va, err := p.Mmap(0, pagesPer*param.PageSize, param.ProtRW,
				vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < touchRounds; r++ {
				if err := p.TouchRange(va, pagesPer*param.PageSize, true); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("racing allocator failed: %v", err)
	}

	st := m.Stats
	if st.Get(sim.CtrAllocHits) == 0 {
		t.Error("no magazine hits: the cached allocation path never ran")
	}
	if st.Get(sim.CtrPdRounds) == 0 {
		t.Error("no reclaim pass ran: the overcommit never emptied the free list")
	}
	if st.Get(sim.CtrPageOuts) == 0 {
		t.Error("nothing paged out despite 3x RAM of dirty anon pages")
	}
	t.Logf("alloc acquires=%d contended=%d hits=%d refills=%d drains=%d steals=%d reaps=%d passes=%d waits=%d",
		st.Get(sim.CtrAllocAcquires), st.Get(sim.CtrAllocContended),
		st.Get(sim.CtrAllocHits), st.Get(sim.CtrAllocRefills),
		st.Get(sim.CtrAllocDrains), st.Get(sim.CtrAllocSteals),
		st.Get(sim.CtrAllocReaps), st.Get(sim.CtrPdRounds), st.Get(sim.CtrPdBlocked))
}

// TestAllocCachesDaemonReapRescuesWaiter constructs, deterministically,
// the one situation where frames parked in magazines could wedge the
// system: the global pool and every magazine are empty, an allocator is
// waiting on a reclaim pass, and the only free frames then appear in a
// magazine the waiting goroutine cannot reach (parked there by a freeing
// goroutine, with nothing evictable on the page queues). The pass frees
// nothing from the queues; without its reap fallback the waiter's own
// pass would free nothing either and report ErrDeadlock. With it, the
// pass reaps the magazines into the pool, and the waiter's retry
// succeeds.
func TestAllocCachesDaemonReapRescuesWaiter(t *testing.T) {
	const (
		ramPages = 128
		caches   = 4
		parked   = 8 // frames freed into a magazine
	)
	s, m := bootCachesTest(t, ramPages, caches)

	// Drain the machine completely: pool and magazines all empty. The
	// grabbed frames are raw (never enqueued), so the page queues hold
	// nothing a pass could evict. Then hold the reclaim slot, so the next
	// allocation waits on the held pass.
	type grabOwner struct{}
	var grabbed []*phys.Page
	for {
		pg, err := m.Mem.Alloc(&grabOwner{}, 0, false)
		if err != nil {
			break
		}
		grabbed = append(grabbed, pg)
	}
	if len(grabbed) != ramPages {
		t.Fatalf("grabbed %d frames, want all %d", len(grabbed), ramPages)
	}

	finish := holdReclaim(s)
	defer finish()

	// Block an allocator: Alloc fails (nothing free anywhere), so it
	// waits for the held pass to end.
	got := make(chan *phys.Page, 1)
	fail := make(chan error, 1)
	go func() {
		pg, err := s.allocPage(noHome, &grabOwner{}, 0, false)
		if err != nil {
			fail <- err
			return
		}
		got <- pg
	}()
	waitBlocked(t, m, 1)

	// Park a handful of frames in a magazine — NOT the pool. freeCnt
	// rises (the free count never lies), and the waiting goroutine
	// cannot retry until the pass ends.
	reapsBefore := m.Stats.Get(sim.CtrAllocReaps)
	for i := 0; i < parked; i++ {
		m.Mem.FreeCPU(2, grabbed[len(grabbed)-1-i])
	}
	grabbed = grabbed[:len(grabbed)-parked]
	if free, cached := m.Mem.FreePages(), m.Mem.CachedFreePages(); free != parked || cached != parked {
		t.Fatalf("parked frames miscounted: FreePages=%d CachedFreePages=%d, want %d in magazines only",
			free, cached, parked)
	}

	// Run the pass: it scans empty queues, frees nothing, reaps the
	// magazines, and ends. The waiter's retry must succeed.
	finish()
	select {
	case pg := <-got:
		grabbed = append(grabbed, pg)
	case err := <-fail:
		t.Fatalf("blocked allocator failed instead of being rescued by the magazine reap: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("blocked allocator still waiting after the pass")
	}
	if reaps := m.Stats.Get(sim.CtrAllocReaps); reaps == reapsBefore {
		t.Errorf("phys.alloc.reaps did not advance: the rescue did not come from the magazine reap")
	}

	for _, pg := range grabbed {
		m.Mem.Free(pg)
	}
}
