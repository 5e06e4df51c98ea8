package uvm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Tests for the asynchronous pagedaemon: wakeup of blocked allocators,
// graceful shutdown while allocators are blocked, the inline-reclaim
// ablation, a -race stress of daemon rounds vs. inline passes, and the
// one ErrDeadlock of a machine with nothing left to reclaim.

// gateDaemon installs the test gate before any allocation has happened,
// returning a release function. While gated, the daemon accepts doorbell
// rings but completes no reclaim round.
func gateDaemon(s *System) (release func()) {
	ch := make(chan struct{})
	s.pd.gate = func() { <-ch }
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func waitersOf(s *System) int {
	s.flMu.Lock()
	defer s.flMu.Unlock()
	return s.pd.waiters
}

// TestBlockedAllocatorsWokenAfterReclaim holds the daemon in its gate
// while several goroutines overcommit a tiny machine, verifies they
// actually block at the empty free list, then releases the daemon and
// checks that every allocator is woken and completes.
func TestBlockedAllocatorsWokenAfterReclaim(t *testing.T) {
	s, m := bootTest(t, 64)
	defer testutil.ShutdownSweep(t, s)
	release := gateDaemon(s)
	defer release()

	// The workers' regions stay mapped (no Exit) until the test is over:
	// a finished worker must keep its pages resident so the combined
	// demand really overcommits RAM and later workers have to block.
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

	// With the daemon gated, the workers must exhaust RAM and pile up as
	// waiters on the condition variable.
	deadline := time.Now().Add(5 * time.Second)
	for waitersOf(s) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no allocator ever blocked on the pagedaemon")
		}
		time.Sleep(100 * time.Microsecond)
	}

	release()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed after daemon wakeup: %v", err)
		}
	}
	if m.Stats.Get(sim.CtrPdBlocked) == 0 {
		t.Error("no allocator recorded as blocked")
	}
	if m.Stats.Get(sim.CtrPdFreed) == 0 {
		t.Error("daemon freed nothing")
	}
	if m.Stats.Get(sim.CtrPdRounds) == 0 {
		t.Error("no reclaim rounds ran")
	}
}

// TestShutdownWhileBlocked verifies the graceful teardown path: an
// allocator blocked on the daemon must be released promptly by
// Shutdown — falling back to direct reclaim, not hanging — and the
// system must stay usable afterwards.
func TestShutdownWhileBlocked(t *testing.T) {
	s, _ := bootTest(t, 64)
	release := gateDaemon(s)
	defer release()

	p := newProc(t, s, "blocked")
	const pages = 128
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.TouchRange(va, pages*param.PageSize, true) }()

	deadline := time.Now().Add(5 * time.Second)
	for waitersOf(s) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("allocator never blocked")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Shutdown with the daemon wedged in its gate: the blocked allocator
	// must unwedge immediately (direct reclaim succeeds here — swap has
	// room), long before the daemon goroutine itself can exit.
	shutdownDone := make(chan struct{})
	go func() { s.Shutdown(); close(shutdownDone) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked allocator failed after shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("allocator still blocked after Shutdown")
	}

	release() // let the daemon goroutine observe shutdown and exit
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not join the daemon goroutine")
	}

	// The system survives shutdown: reclaim now runs inline.
	q := newProc(t, s, "after")
	qva, _ := q.Mmap(0, 96*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err := q.TouchRange(qva, 96*param.PageSize, true); err != nil {
		t.Fatalf("post-shutdown allocation failed: %v", err)
	}
	s.Shutdown() // idempotent
}

// TestInlineReclaimAblation checks the cfg.InlineReclaim escape hatch:
// no daemon goroutine, no blocking, same workload outcome.
func TestInlineReclaimAblation(t *testing.T) {
	m := testMachine(64)
	cfg := DefaultConfig()
	cfg.InlineReclaim = true
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	if s.pd != nil {
		t.Fatal("InlineReclaim booted a pagedaemon")
	}
	p, _ := s.NewProcess("pig")
	const pages = 200
	va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	for i := 0; i < pages; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i)}); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	b := make([]byte, 1)
	for i := 0; i < pages; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, b); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if b[0] != byte(i) {
			t.Fatalf("page %d corrupted through swap: %#x", i, b[0])
		}
	}
	if m.Stats.Get(sim.CtrPdRounds) != 0 || m.Stats.Get(sim.CtrPdBlocked) != 0 {
		t.Error("inline mode recorded daemon activity")
	}
	if m.Stats.Get(sim.CtrPdFreed) == 0 {
		t.Error("no reclaim happened at all")
	}
	s.Shutdown() // must be a no-op without a daemon
}

// TestDaemonAndDirectReclaimConcurrently drives heavy overcommit from
// many goroutines on a machine small against the reclaim batch (64 of
// 384 pages, one sixth), so reclaim passes overlap: daemon rounds and
// allocators' inline passes by default, and only inline passes —
// several at once — under InlineReclaim. Run with -race; data integrity
// is verified per worker, and no allocation may report ErrDeadlock while
// swap has room.
func TestDaemonAndDirectReclaimConcurrently(t *testing.T) {
	for _, inline := range []bool{false, true} {
		t.Run(map[bool]string{false: "Daemon", true: "InlineReclaim"}[inline], func(t *testing.T) {
			reclaimConcurrently(t, inline)
		})
	}
}

func reclaimConcurrently(t *testing.T, inline bool) {
	// Swap must hold the whole demand (8 workers x 256 pages, all dirty,
	// possibly all alive at once): testMachine's 4x RAM plus RAM itself
	// falls short of it, and whether the workers overlap enough to notice
	// is up to the scheduler — a true ErrDeadlock, not a bug.
	m := vmapi.NewMachine(vmapi.MachineConfig{RAMPages: 384, SwapPages: 4096, FSPages: 4096, MaxVnodes: 50})
	s := BootConfig(m, Config{InlineReclaim: inline})
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

// TestStalledRoundReportsDeadlock wires all of RAM with Mlock, so
// nothing is evictable and no write is in flight: the next allocation
// must report ErrDeadlock, and promptly — with the daemon, after one
// fruitless round and one fruitless inline pass; without, after the pass.
func TestStalledRoundReportsDeadlock(t *testing.T) {
	for _, inline := range []bool{false, true} {
		t.Run(map[bool]string{false: "Daemon", true: "InlineReclaim"}[inline], func(t *testing.T) {
			const ram = 64
			m := testMachine(ram)
			s := BootConfig(m, Config{InlineReclaim: inline})
			testutil.SweepOnCleanup(t, s)
			defer s.Shutdown()
			p := newProc(t, s, "wirer")
			va, _ := p.Mmap(0, 2*ram*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			if err := p.Mlock(va, 2*ram*param.PageSize); err != vmapi.ErrDeadlock || m.Mem.FreePages() != 0 {
				t.Fatalf("Mlock of twice RAM: %v with %d frames free, want ErrDeadlock with none", err, m.Mem.FreePages())
			}
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

// TestLowWaterAutoSizing pins the automatic watermark formula.
func TestLowWaterAutoSizing(t *testing.T) {
	cases := []struct {
		ram, want int
	}{
		{64, 16},        // tiny machine: clamped to total/4
		{8192, 128},     // the 32 MB paper machine: 2×maxCluster
		{1 << 16, 1024}, // big machine: total/64 dominates
	}
	for _, c := range cases {
		s, _ := bootTest(t, c.ram)
		if s.pd.low != c.want {
			t.Errorf("ram=%d: low=%d, want %d", c.ram, s.pd.low, c.want)
		}
		s.Shutdown()
	}
}
