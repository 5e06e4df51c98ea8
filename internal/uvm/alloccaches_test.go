package uvm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Tests for the per-CPU free-page caches under the full VM stack: racing
// allocators against the pagedaemon's watermark protocol, and the
// daemon's magazine reap rescuing a blocked allocator when the page
// queues have nothing left to give.

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
// pagedaemon is continuously woken by the low-water doorbell and evicts
// to swap. Every fault must complete: the magazines may never hide
// frames from the watermark protocol or wedge a waiter. Runs in the
// explicit -race CI step.
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
	if st.Get(sim.CtrPdWakeups) == 0 {
		t.Error("pagedaemon never woken: the overcommit did not cross the low watermark")
	}
	if st.Get(sim.CtrPageOuts) == 0 {
		t.Error("nothing paged out despite 3x RAM of dirty anon pages")
	}
	t.Logf("alloc acquires=%d contended=%d hits=%d refills=%d drains=%d steals=%d reaps=%d pd-wakeups=%d",
		st.Get(sim.CtrAllocAcquires), st.Get(sim.CtrAllocContended),
		st.Get(sim.CtrAllocHits), st.Get(sim.CtrAllocRefills),
		st.Get(sim.CtrAllocDrains), st.Get(sim.CtrAllocSteals),
		st.Get(sim.CtrAllocReaps), st.Get(sim.CtrPdWakeups))
}

// TestAllocCachesDaemonReapRescuesWaiter constructs, deterministically,
// the one situation where frames parked in magazines could wedge the
// system: the global pool and every magazine are empty, an allocator is
// blocked in waitForFree, and the only free frames then appear in a
// magazine the blocked goroutine cannot reach (parked there by a freeing
// goroutine, fewer than the low watermark, with nothing evictable on the
// page queues). The daemon's round frees nothing from the queues — before
// this PR's reap fallback it would declare a stall and the waiter would
// fall into direct reclaim and ErrDeadlock. With the fallback, the round
// reaps the magazines into the pool, broadcasts, and the waiter's retry
// succeeds.
func TestAllocCachesDaemonReapRescuesWaiter(t *testing.T) {
	const (
		ramPages = 128
		caches   = 4
		parked   = 8 // frames freed into a magazine: below pd.low (32 here)
	)
	s, m := bootCachesTest(t, ramPages, caches)

	// Togglable daemon gate, installed before any allocation: closed =
	// the daemon parks before its next reclaim round.
	var gate atomic.Value // chan struct{}; receiving proceeds when closed
	openGate := func() chan struct{} {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	gate.Store(openGate())
	s.pd.gate = func() { <-gate.Load().(chan struct{}) }
	if parked >= s.pd.low {
		t.Fatalf("test sizing broken: parked=%d must stay below pd.low=%d", parked, s.pd.low)
	}

	// Drain the machine completely: pool and magazines all empty. The
	// grabbed frames are raw (never enqueued), so the page queues hold
	// nothing the daemon could evict.
	type grabOwner struct{}
	gate.Store(make(chan struct{}))
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

	// Block an allocator: Alloc fails (nothing free anywhere), so it
	// registers as a waiter and sleeps on the daemon's condvar.
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
	deadline := time.Now().Add(10 * time.Second)
	for waitersOf(s) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("allocator never registered as a pagedaemon waiter")
		}
		runtime.Gosched()
	}

	// Park a handful of frames in a magazine — NOT the pool. freeCnt
	// rises (the watermark never lies) but stays below pd.low, and the
	// blocked goroutine cannot retry until a round completes.
	reapsBefore := m.Stats.Get(sim.CtrAllocReaps)
	for i := 0; i < parked; i++ {
		m.Mem.FreeCPU(2, grabbed[len(grabbed)-1-i])
	}
	grabbed = grabbed[:len(grabbed)-parked]
	if free, cached := m.Mem.FreePages(), m.Mem.CachedFreePages(); free != parked || cached != parked {
		t.Fatalf("parked frames miscounted: FreePages=%d CachedFreePages=%d, want %d in magazines only",
			free, cached, parked)
	}

	// Open the gate: the round scans empty queues, frees nothing, reaps
	// the magazines, and broadcasts. The waiter's retry must succeed.
	close(gate.Load().(chan struct{}))
	select {
	case pg := <-got:
		grabbed = append(grabbed, pg)
	case err := <-fail:
		t.Fatalf("blocked allocator failed instead of being rescued by the magazine reap: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("blocked allocator still waiting after the daemon round")
	}
	if reaps := m.Stats.Get(sim.CtrAllocReaps); reaps == reapsBefore {
		t.Errorf("phys.alloc.reaps did not advance: the rescue did not come from the magazine reap")
	}

	for _, pg := range grabbed {
		m.Mem.Free(pg)
	}
}
