package uvm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Tests for the single-flight reclaimer: allocators that arrive while a
// pass runs wait for it instead of scanning beside it, a -race stress of
// many allocators' passes, and the one ErrDeadlock of a machine with
// nothing left to reclaim.

// holdReclaim takes the single-flight reclaim slot on the test's behalf,
// as an allocator that found no free frame would, so allocators that
// find none meanwhile wait for the pass. finish runs the real pass in
// that slot and ends it; it is idempotent. No pass may be running when
// holdReclaim is called.
func holdReclaim(s *System) (finish func()) {
	async, ok := s.takeReclaim()
	if !ok {
		panic("holdReclaim: a reclaim pass was already running")
	}
	var once sync.Once
	return func() { once.Do(func() { s.reclaimPass(async) }) }
}

// waitBlocked waits until n allocators in all have waited on another's
// pass.
func waitBlocked(t *testing.T, m *vmapi.Machine, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats.Get(sim.CtrPdBlocked) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d allocators waited on the held pass, want %d", m.Stats.Get(sim.CtrPdBlocked), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// grabAll takes every free frame raw — owned by no VM structure and on no
// page queue — and returns them.
func grabAll(m *vmapi.Machine) []*phys.Page {
	type grabOwner struct{}
	var grabbed []*phys.Page
	for {
		pg, err := m.Mem.Alloc(&grabOwner{}, 0, false)
		if err != nil {
			return grabbed
		}
		grabbed = append(grabbed, pg)
	}
}

// TestSingleFlightReclaimTable drives the single-flight protocol through
// each of its outcomes on a 64-page machine whose free list the test has
// emptied. Each row stocks the page queues (dirty anonymous pages, or
// nothing evictable), optionally holds the reclaim slot while allocators
// arrive, and checks what they got and how many passes ran.
func TestSingleFlightReclaimTable(t *testing.T) {
	type row struct {
		name       string
		async      bool // cfg.AsyncPageout
		evictable  bool // the queues hold dirty anonymous pages
		hold       bool // allocators arrive while the test holds the slot
		shutdown   bool // Shutdown is called while the slot is held
		allocators int
		wantErr    error
		wantRounds int64 // passes run, counting the held one; -1: not checked
	}
	rows := []row{
		// An allocator arriving mid-pass waits for it and takes what it
		// freed: one pass, one blocked allocator, no second scan.
		{name: "waiter-arrives-mid-pass", evictable: true, hold: true, allocators: 1, wantRounds: 1},
		// An allocator alone runs the pass itself, and it frees pages.
		{name: "pass-frees-pages", evictable: true, allocators: 1, wantRounds: 1},
		// Nothing evictable and nothing in flight: the held pass frees
		// nothing, each allocator's own pass frees nothing, and both
		// report ErrDeadlock at once.
		{name: "fruitless-pass-no-flights", hold: true, allocators: 2, wantErr: vmapi.ErrDeadlock, wantRounds: -1},
		// An asynchronous pass only submits: the allocator waits for the
		// flight's completion to free the pages instead of scanning again.
		{name: "async-pass-only-submits", async: true, evictable: true, allocators: 1, wantRounds: 1},
		// Shutdown waits for the held asynchronous pass to end and then for
		// its flight: nothing is in the air when it returns.
		{name: "shutdown-during-pass", async: true, evictable: true, hold: true, shutdown: true, allocators: 1, wantRounds: -1},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			const ram = 64
			m := testMachine(ram)
			s := BootConfig(m, Config{AsyncPageout: r.async})
			testutil.SweepOnCleanup(t, s)
			p := newProc(t, s, "stock")
			if r.evictable {
				// Half of RAM of dirty anonymous pages, pushed to the
				// inactive queue unreferenced so a pass takes them at once.
				const n = ram / 2
				va, err := p.Mmap(0, n*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.TouchRange(va, n*param.PageSize, true); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					pte, _ := p.pm.Lookup(va + param.VAddr(i)*param.PageSize)
					pte.Page.Referenced.Store(false)
					m.Mem.Deactivate(pte.Page)
				}
			}
			grabbed := grabAll(m)
			defer func() {
				for _, pg := range grabbed {
					m.Mem.Free(pg)
				}
			}()
			before := m.Stats.Snapshot()

			var finish func()
			if r.hold {
				finish = holdReclaim(s)
				defer finish()
			}
			type result struct {
				pg  *phys.Page
				err error
			}
			results := make(chan result, r.allocators)
			for i := 0; i < r.allocators; i++ {
				go func() {
					pg, err := s.allocPage(noHome, nil, 0, false)
					results <- result{pg, err}
				}()
			}
			shutdownDone := make(chan struct{})
			if r.hold {
				waitBlocked(t, m, before[sim.CtrPdBlocked]+int64(r.allocators))
				if r.shutdown {
					go func() { s.Shutdown(); close(shutdownDone) }()
					select {
					case <-shutdownDone:
						t.Fatal("Shutdown returned while a pass was running")
					case <-time.After(20 * time.Millisecond):
					}
				}
				finish()
			}
			if r.shutdown {
				select {
				case <-shutdownDone:
				case <-time.After(10 * time.Second):
					t.Fatal("Shutdown did not return after the pass ended")
				}
				if n := s.flights.Load(); n != 0 {
					t.Fatalf("%d flights in the air after Shutdown", n)
				}
			}
			for i := 0; i < r.allocators; i++ {
				select {
				case res := <-results:
					if !errors.Is(res.err, r.wantErr) {
						t.Fatalf("allocator %d: %v, want %v", i, res.err, r.wantErr)
					}
					if res.pg != nil {
						grabbed = append(grabbed, res.pg)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("allocator %d still waiting", i)
				}
			}

			after := m.Stats.Snapshot()
			rounds := after[sim.CtrPdRounds] - before[sim.CtrPdRounds]
			blocked := after[sim.CtrPdBlocked] - before[sim.CtrPdBlocked]
			if r.wantRounds >= 0 && rounds != r.wantRounds {
				t.Errorf("%d passes ran, want %d", rounds, r.wantRounds)
			}
			if r.hold && blocked < int64(r.allocators) {
				t.Errorf("%d allocators waited on the held pass, want %d", blocked, r.allocators)
			}
			if !r.hold && blocked != 0 {
				t.Errorf("%d allocators waited with no pass held", blocked)
			}
			if r.async && after[sim.CtrPdAsyncClusters] == before[sim.CtrPdAsyncClusters] {
				t.Error("the asynchronous pass submitted no cluster")
			}
		})
	}
}

// TestBlockedAllocatorsWokenAfterReclaim holds the reclaim slot while
// several goroutines overcommit a tiny machine, verifies they actually
// wait on it at the empty free list, then runs the pass and checks that
// every allocator is woken and completes.
func TestBlockedAllocatorsWokenAfterReclaim(t *testing.T) {
	s, m := bootTest(t, 64)
	finish := holdReclaim(s)
	defer finish()

	// The workers' regions stay mapped (no Exit) until the test is over:
	// a finished worker must keep its pages resident so the combined
	// demand really overcommits RAM and later workers have to wait.
	const workers, pages = 4, 48 // 192 pages demanded of 64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			p, err := s.NewProcess(fmt.Sprintf("w%d", w))
			if err != nil {
				errs <- err
				return
			}
			va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW,
				vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				errs <- err
				return
			}
			errs <- p.TouchRange(va, pages*param.PageSize, true)
		}(w)
	}

	// With the slot held, the workers must exhaust RAM and wait on it.
	waitBlocked(t, m, 1)
	finish()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed after the pass: %v", err)
		}
	}
	if m.Stats.Get(sim.CtrPdFreed) == 0 {
		t.Error("reclaim freed nothing")
	}
	if m.Stats.Get(sim.CtrPdRounds) < 2 {
		t.Error("no allocator ran a pass of its own after the held one")
	}
}

// TestDaemonAndDirectReclaimConcurrently drives heavy overcommit from
// many goroutines on a machine small against the reclaim batch (64 of
// 384 pages, one sixth), so allocators keep arriving while another's
// pass runs: synchronous passes (InlineReclaim), and passes that submit
// their pageout asynchronously (AsyncPageout), whose completions race the
// next pass. Run with -race; data integrity is verified per worker, and
// no allocation may report ErrDeadlock while swap has room.
func TestDaemonAndDirectReclaimConcurrently(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(map[bool]string{false: "InlineReclaim", true: "AsyncPageout"}[async], func(t *testing.T) {
			reclaimConcurrently(t, async)
		})
	}
}

func reclaimConcurrently(t *testing.T, async bool) {
	// Swap must hold the whole demand (8 workers x 256 pages, all dirty,
	// possibly all alive at once): testMachine's 4x RAM plus RAM itself
	// falls short of it, and whether the workers overlap enough to notice
	// is up to the scheduler — a true ErrDeadlock, not a bug.
	m := vmapi.NewMachine(vmapi.MachineConfig{RAMPages: 384, SwapPages: 4096, FSPages: 4096, MaxVnodes: 50})
	s := BootConfig(m, Config{AsyncPageout: async})
	defer testutil.ShutdownSweep(t, s)

	const workers, pages = 8, 256
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := s.NewProcess(fmt.Sprintf("w%d", w))
			if err != nil {
				errs <- err
				return
			}
			defer p.Exit()
			va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW,
				vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < pages; i++ {
				if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(w), byte(i)}); err != nil {
					errs <- fmt.Errorf("w%d write %d: %w", w, i, err)
					return
				}
			}
			b := make([]byte, 2)
			for i := 0; i < pages; i++ {
				if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
					errs <- fmt.Errorf("w%d read %d: %w", w, i, err)
					return
				}
				if b[0] != byte(w) || b[1] != byte(i) {
					errs <- fmt.Errorf("w%d page %d corrupted: %x %x", w, i, b[0], b[1])
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// wireAllOfRAM mlocks the n-page mapping at va one page at a time until
// an Mlock finds no frame to fault in: that Mlock must report ErrDeadlock
// with no frame free, and every frame of RAM is then wired. (One Mlock of
// more than RAM would not do: a failed Mlock leaves nothing wired.)
func wireAllOfRAM(t *testing.T, m *vmapi.Machine, p *Process, va param.VAddr, n int) {
	t.Helper()
	for i := range n {
		if err := p.Mlock(va+param.VAddr(i)*param.PageSize, param.PageSize); err != nil {
			if err != vmapi.ErrDeadlock || m.Mem.FreePages() != 0 {
				t.Fatalf("Mlock of page %d: %v with %d frames free, want ErrDeadlock with none", i, err, m.Mem.FreePages())
			}
			return
		}
	}
	t.Fatalf("Mlock wired all %d pages of a mapping twice RAM", n)
}

// TestAnonLiveAfterFailedFault: a fault whose frame allocation reports
// ErrDeadlock leaves no anon behind, so once the process exits the
// uvm.anon.live gauge — the leak detector of the tests and examples —
// reads 0.
func TestAnonLiveAfterFailedFault(t *testing.T) {
	const ram = 64
	m := testMachine(ram)
	s := BootConfig(m, DefaultConfig())
	testutil.SweepOnCleanup(t, s)
	p := newProc(t, s, "wirer")
	va, _ := p.Mmap(0, 2*ram*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	wireAllOfRAM(t, m, p, va, 2*ram)
	other, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := p.Access(other, true); err != vmapi.ErrDeadlock {
		t.Fatalf("touch with all of RAM wired: %v, want ErrDeadlock", err)
	}
	p.Exit()
	if live := m.Stats.Get("uvm.anon.live"); live != 0 {
		t.Fatalf("uvm.anon.live = %d after exit, want 0", live)
	}
}

// TestStalledRoundReportsDeadlock wires all of RAM with Mlock, so
// nothing is evictable and no write is in flight: the next allocation
// must report ErrDeadlock, and promptly — after one fruitless pass,
// whether or not the pass may submit asynchronously.
func TestStalledRoundReportsDeadlock(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(map[bool]string{false: "InlineReclaim", true: "AsyncPageout"}[async], func(t *testing.T) {
			const ram = 64
			m := testMachine(ram)
			s := BootConfig(m, Config{AsyncPageout: async})
			testutil.SweepOnCleanup(t, s)
			defer s.Shutdown()
			p := newProc(t, s, "wirer")
			va, _ := p.Mmap(0, 2*ram*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			wireAllOfRAM(t, m, p, va, 2*ram)
			other, _ := p.Mmap(0, param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			done := make(chan error, 1)
			go func() { done <- p.Access(other, true) }()
			select {
			case err := <-done:
				if err != vmapi.ErrDeadlock {
					t.Fatalf("allocation with all of RAM wired: %v, want ErrDeadlock", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("allocation with all of RAM wired is still waiting")
			}
			if err := p.Munlock(va, 2*ram*param.PageSize); err != nil {
				t.Fatal(err)
			}
		})
	}
}
