package uvm

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"uvm/internal/control"
	"uvm/internal/param"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Tests for the control-plane wiring: live watermark resizing against
// condvar-blocked allocators, live pageout-window resizing against an
// active reclaim pipeline, the syncer's dirty-page trickle, and an
// end-to-end AutoTune boot smoke test. Run under -race in CI.

// TestWatermarkResizeWhileAllocatorsBlocked retargets the watermarks at
// the worst possible moment — allocators condvar-blocked in waitForFree,
// daemon held in its gate — and verifies no wakeup is lost: every
// blocked allocator completes once the daemon runs. This is the race the
// generation-counter protocol has to win; watermark values play no part
// in the sleep/wake handshake.
func TestWatermarkResizeWhileAllocatorsBlocked(t *testing.T) {
	s, _ := bootTest(t, 64)
	release := gateDaemon(s)
	defer release()

	const workers, pages = 4, 48
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

	deadline := time.Now().Add(5 * time.Second)
	for waitersOf(s) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no allocator ever blocked on the pagedaemon")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Resize under the blocked allocators — both directions, ending on a
	// raised floor so the daemon reclaims toward different targets than
	// it was booted with.
	oldLow := s.pd.lowMark()
	s.pd.setWatermarks(oldLow*2, oldLow*4)
	s.pd.setWatermarks(1, 2)
	s.pd.setWatermarks(oldLow*2, oldLow*4)
	if got := s.pd.lowMark(); got != oldLow*2 {
		t.Fatalf("lowMark after resize = %d, want %d", got, oldLow*2)
	}
	if got := s.pd.highMark(); got != oldLow*4 {
		t.Fatalf("highMark after resize = %d, want %d", got, oldLow*4)
	}
	// Degenerate settings must be refused, not installed.
	s.pd.setWatermarks(0, 10)
	s.pd.setWatermarks(8, 8)
	if got := s.pd.lowMark(); got != oldLow*2 {
		t.Fatalf("degenerate resize was installed: lowMark = %d", got)
	}

	release()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed after watermark resize: %v", err)
		}
	}
}

// TestPageoutWindowLiveResizeDuringReclaim runs the full async reclaim
// pipeline against a goroutine that resizes the swap AIO window across
// its whole range mid-flight. Clusters admitted under the old, larger
// window must drain normally across every shrink; the shutdown sweep
// (registered by the boot helper) then proves no page leaked a Busy
// claim.
func TestPageoutWindowLiveResizeDuringReclaim(t *testing.T) {
	s, m := bootPipeline(t, 128, func(c *Config) {
		c.AsyncPageout = true
		c.PageoutWindow = 4
		c.ReclaimWorkers = 2
		c.PageinCluster = 4
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Swap.SetAIOWindow(n%8 + 1)
			n++
		}
	}()

	p := newProc(t, s, "p")
	const pages = 512 // 4× RAM: continuous pageout and pagein traffic
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepPattern(t, p, va, pages)
	close(stop)
	wg.Wait()
	if got := m.Swap.AIOWindow(); got < 1 || got > 8 {
		t.Fatalf("final AIO window = %d, outside the resizer's range", got)
	}
}

// TestSyncerTricklesDirtyObjectPages drives one syncer pass by hand over
// dirtied shared file mappings: the dirty pages must leave through the
// writeback engine (clean afterwards, data on the file) without being
// evicted, and pages past EOF or on aobj backends must be left alone.
func TestSyncerTricklesDirtyObjectPages(t *testing.T) {
	s, m := bootWb(t, 256, func(c *Config) {
		c.AsyncWriteback = true
		c.AutoTune = true
	})
	if s.tuner == nil {
		t.Fatal("AutoTune boot did not start the tuner")
	}

	vn := mkfile(t, m, "/sync", 8, 0x20)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirtyPages(t, p, va, 0, 1, 2, 6)

	s.tuner.trickleSync()
	m.FS.DrainWrites()

	o := vn.GetVMObj().(*uobject)
	o.mu.Lock()
	for _, idx := range []int{0, 1, 2, 6} {
		pg, ok := o.pages[idx]
		if !ok {
			t.Fatalf("page %d was evicted by the syncer (writeback cleans, it must not evict)", idx)
		}
		if pg.Dirty.Load() {
			t.Errorf("page %d still dirty after syncer pass + drain", idx)
		}
		if pg.Busy.Load() {
			t.Errorf("page %d still busy after drain", idx)
		}
	}
	o.mu.Unlock()

	if got := m.Stats.Get(ctrSyncerPasses); got < 1 {
		t.Fatalf("%s = %d, want >= 1", ctrSyncerPasses, got)
	}
	if got := m.Stats.Get(ctrSyncerPages); got < 4 {
		t.Fatalf("%s = %d, want >= 4", ctrSyncerPages, got)
	}

	// The flushed bytes must actually be on the file.
	buf := make([]byte, 1)
	if err := vn.ReadPage(0, make([]byte, param.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := p.ReadBytes(va, buf); err != nil || buf[0] != 0xD0 {
		t.Fatalf("mapped data corrupted by syncer: %v %#x", err, buf[0])
	}
}

// TestAutotuneBootSmoke boots the whole control plane through
// Config.AutoTune, runs a paging workload that crosses
// several controller epochs, and verifies the plane actually stepped,
// every emitted setting still validates, and shutdown is clean (Busy
// sweep via the cleanup hook).
func TestAutotuneBootSmoke(t *testing.T) {
	m := vmapi.NewMachine(vmapi.MachineConfig{
		RAMPages:  128,
		SwapPages: 1024,
		FSPages:   4096,
		MaxVnodes: 50,
	})
	cfg := DefaultConfig()
	cfg.AutoTune = true
	cfg.AsyncPageout = true
	cfg.AsyncWriteback = true
	cfg.PageoutWindow = 2
	cfg.PageinCluster = 4
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	if s.tuner == nil {
		t.Fatal("Config.AutoTune did not start the tuner")
	}

	p := newProc(t, s, "p")
	const pages = 512
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW,
		vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepPattern(t, p, va, pages) // 4× RAM of paging: many ms of sim time

	if got := m.Stats.Get(control.CtrSteps); got == 0 {
		t.Fatalf("control plane never stepped (sim clock %v)", m.Clock.Now())
	}
	tun := s.tuner.set.Tuning()
	if err := tun.Validate(m.Mem.TotalPages()); err != nil {
		t.Fatalf("live tuning does not validate: %v (%+v)", err, tun)
	}
	// The applied knobs must agree with the controller set.
	if got := m.Swap.AIOWindow(); got != tun.PageoutWindow {
		t.Errorf("swap window = %d, controller says %d", got, tun.PageoutWindow)
	}
	if got := s.pageinCap(); got != tun.PageinCluster {
		t.Errorf("pagein cap = %d, controller says %d", got, tun.PageinCluster)
	}
	if got := s.pd.lowMark(); got != tun.LowWater {
		t.Errorf("low watermark = %d, controller says %d", got, tun.LowWater)
	}

	s.Shutdown() // idempotent; cleanup sweeps again
	if busy := m.Mem.BusyPages(); len(busy) != 0 {
		t.Fatalf("%d Busy pages after AutoTune shutdown", len(busy))
	}
}
