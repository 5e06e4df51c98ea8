package uvm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Fault-injection regression suite: every async error path must leave
// the system consistent. A failed pagein errors the fault without
// poisoning cluster neighbours; a failed writeback completion leaves the
// pages dirty and resident so a second msync retries them; a swap device
// that dies mid-pageout unblocks allocators with an error and Shutdown
// still drains. Every test ends with a Busy sweep: a quiescent system
// holds no claimed frames.

// busySweep asserts that no page frame is left Busy — the invariant every
// error path must restore before giving up its claim.
func busySweep(t *testing.T, m *vmapi.Machine, when string) {
	t.Helper()
	if leaked := m.Mem.BusyPages(); len(leaked) != 0 {
		t.Fatalf("%s: %d pages leaked Busy", when, len(leaked))
	}
}

// TestPageinReadErrorFailsFaultCleanly pages a region out, then makes
// every swap read fail: the re-fault must surface the injected error (the
// clustered pagein degrades to single-slot, which also fails), release
// its frames, and leave no Busy claim. Once the plan is lifted, every
// byte of the region — including the cluster neighbours of the failed
// fault — must come back intact.
func TestPageinReadErrorFailsFaultCleanly(t *testing.T) {
	s, m := bootPipeline(t, 128, func(c *Config) {
		c.InlineReclaim = true // deterministic: reclaim inline, pageout sync
		c.PageinCluster = 8
	})
	p := newProc(t, s, "victim")
	const pages = 256 // 2x RAM: the tail of the sweep evicts the head
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}

	// Pick a page the sweep evicted.
	res, err := p.Mincore(va, pages*param.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i, r := range res {
		if !r {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("nothing evicted: region does not overcommit RAM")
	}

	plan := disk.NewFaultPlan(disk.FaultRule{Kind: disk.FaultReadError, Block: disk.BlockAny})
	m.SwapDisk.SetFaultPlan(plan)
	freeBefore := m.Mem.FreePages()
	buf := make([]byte, 2)
	if err := p.ReadBytes(va+param.VAddr(victim)*param.PageSize, buf); !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("fault over failing swap returned %v, want ErrInjected", err)
	}
	if plan.Fired(0) == 0 {
		t.Fatal("fault never reached the disk")
	}
	// The failed fault gave everything back: the frames it allocated and
	// every Busy claim (its own page and any cluster neighbours). Free
	// pages may rise (the allocation can trigger an inline reclaim batch)
	// but must never drop.
	if got := m.Mem.FreePages(); got < freeBefore {
		t.Errorf("failed fault leaked frames: %d free, was %d", got, freeBefore)
	}
	busySweep(t, m, "after failed fault")

	// Lift the plan: the data — neighbours of the failed cluster read
	// included — must be exactly what the sweep wrote.
	m.SwapDisk.SetFaultPlan(nil)
	for i := 0; i < pages; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, buf); err != nil {
			t.Fatalf("read page %d after lifting plan: %v", i, err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("page %d corrupted by failed fault: got %#x %#x", i, buf[0], buf[1])
		}
	}
	if m.Stats.Get(sim.CtrPageinClusters) == 0 {
		t.Error("clustered pagein path never exercised")
	}
	busySweep(t, m, "after recovery")
}

// TestWritebackErrorKeepsPagesDirty fails the first writeback cluster of
// an msync on both backends: msync must report the error, the pages must
// stay resident and dirty (no Busy claim left behind), and a second
// msync must retry and flush exactly those pages.
func TestWritebackErrorKeepsPagesDirty(t *testing.T) {
	const dirty = 4
	cases := []struct {
		name string
		run  func(t *testing.T) (*Process, *vmapi.Machine, param.VAddr)
	}{
		{"vnode", func(t *testing.T) (*Process, *vmapi.Machine, param.VAddr) {
			s, m := bootPipeline(t, 256, func(c *Config) {
				c.AsyncWriteback = true
				c.WritebackCluster = 8 // the 4 dirty pages leave as one cluster
			})
			vn := mkfile(t, m, "/wberr", 8, 0x30)
			t.Cleanup(vn.Unref)
			p := newProc(t, s, "p")
			va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
			if err != nil {
				t.Fatal(err)
			}
			m.FSDisk.SetFaultPlan(disk.NewFaultPlan(
				disk.FaultRule{Kind: disk.FaultWriteError, Block: disk.BlockAny, Count: 1}))
			return p, m, va
		}},
		{"aobj", func(t *testing.T) (*Process, *vmapi.Machine, param.VAddr) {
			s, m := bootPipeline(t, 256, func(c *Config) {
				c.AsyncWriteback = true
				c.WritebackCluster = 8
			})
			p := newProc(t, s, "p")
			va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapShared, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			m.SwapDisk.SetFaultPlan(disk.NewFaultPlan(
				disk.FaultRule{Kind: disk.FaultWriteError, Block: disk.BlockAny, Count: 1}))
			return p, m, va
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, m, va := tc.run(t)
			for i := 0; i < dirty; i++ {
				if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{0xC0 + byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Msync(va, 8*param.PageSize); !errors.Is(err, disk.ErrInjected) {
				t.Fatalf("msync over failing disk returned %v, want ErrInjected", err)
			}
			busySweep(t, m, "after failed msync")
			if got := m.Stats.Get(sim.CtrPageOuts); got != 0 {
				t.Fatalf("failed msync claims %d pages cleaned", got)
			}
			// Still resident: writeback cleans, failure must not evict.
			res, err := p.Mincore(va, dirty*param.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if !r {
					t.Fatalf("page %d evicted by the failed writeback", i)
				}
			}
			// Still dirty: the second msync retries exactly those pages.
			if err := p.Msync(va, 8*param.PageSize); err != nil {
				t.Fatalf("retry msync: %v", err)
			}
			if got := m.Stats.Get(sim.CtrPageOuts); got != dirty {
				t.Fatalf("retry flushed %d pages, want %d (pages lost their dirty bit)", got, dirty)
			}
			// Third pass: everything is clean now.
			if err := p.Msync(va, 8*param.PageSize); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats.Get(sim.CtrPageOuts); got != dirty {
				t.Fatalf("third msync rewrote pages: %d total outs", got)
			}
			busySweep(t, m, "after retry")
		})
	}
}

// TestSwapDeviceDeathMidPageout kills the swap device under an
// overcommitted async-pageout workload. The workload must error out
// rather than hang (dead swap means the dirty working set genuinely
// cannot fit), the dead device must be retired from the contiguous
// allocator, and Shutdown must still drain the in-flight window and
// leave no Busy claim behind.
func TestSwapDeviceDeathMidPageout(t *testing.T) {
	m := testMachine(96)
	cfg := DefaultConfig()
	cfg.AsyncPageout = true
	cfg.PageoutWindow = 2
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	// Let a couple of swap commands through, then die. At most
	// 2×MaxCluster pages escape before death, so a 512-page demand
	// against 96 pages of RAM is guaranteed to strand the workload.
	m.SwapDisk.SetFaultPlan(disk.NewFaultPlan(
		disk.FaultRule{Kind: disk.FaultDeviceDeath, Block: disk.BlockAny, AfterOps: 2}))

	p := newProc(t, s, "doomed")
	const pages = 512
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The touch must terminate with an error — the allocator unblocks and
	// reports (deadlock or the device error), it does not wait forever on
	// pageouts that can never complete.
	if err := p.TouchRange(va, pages*param.PageSize, true); err == nil {
		t.Fatal("overcommitted workload succeeded on a dead swap device")
	}
	if !m.SwapDisk.Dead() {
		t.Fatal("death rule never fired")
	}
	if got := m.Stats.Get("disk.deaths"); got != 1 {
		t.Errorf("death counter = %d, want 1", got)
	}
	// The dead device is retired: no new cluster runs are placed on it.
	if _, err := m.Swap.AllocContig(2); err == nil {
		t.Error("AllocContig still places runs on the dead device")
	}

	// Shutdown drains: failed completions count too.
	s.Shutdown()
	if s.flights.Load() != 0 {
		t.Error("async writes still in flight after Shutdown on a dead device")
	}
	busySweep(t, m, "after shutdown")
}

// TestFaultPlanReclaimOnEveryProfile runs the full reclaim pipeline —
// async clustered pageout, four reclaim workers, clustered pagein —
// under overcommit on every machine profile, with a swap fault plan that
// tears cluster writes, fails whole writes and fails reads, each a few
// times and then never again. Four producers stamp every page of
// private regions that together demand twice RAM, then, once all have
// finished, stamp them all again, so the second pass pages back in what
// the first pushed out. A failed access is the behaviour under test, so
// it is counted, not fatal. Every rule must
// fire; once the plan is lifted every page must read back the last stamp
// that was written successfully, whatever tore or failed on its way to
// swap; and Shutdown must leave no page Busy. The profiles must also
// differ: ramdisk I/O is nearly free, so the run costs hdd97 far more
// simulated time.
func TestFaultPlanReclaimOnEveryProfile(t *testing.T) {
	const (
		producers = 4
		region    = 512 // pages per producer: 4 × 512 = 2 × RAM
		passes    = 2
	)
	rules := []disk.FaultRule{
		{Kind: disk.FaultTornWrite, Block: disk.BlockAny, AfterOps: 8, Count: 3, TornPages: 2},
		{Kind: disk.FaultWriteError, Block: disk.BlockAny, AfterOps: 15, Count: 2},
		{Kind: disk.FaultReadError, Block: disk.BlockAny, AfterOps: 10, Count: 3},
	}
	simTime := map[string]time.Duration{}
	for _, prof := range sim.Profiles() {
		t.Run(prof, func(t *testing.T) {
			plan := disk.NewFaultPlan(rules...)
			m := vmapi.NewMachine(vmapi.MachineConfig{
				RAMPages:      1024,
				SwapPages:     65536,
				FSPages:       1024,
				MaxVnodes:     16,
				Profile:       prof,
				SwapFaultPlan: plan,
			})
			cfg := DefaultConfig()
			cfg.AsyncPageout = true
			cfg.PageoutWindow = 4
			cfg.ReclaimWorkers = 4
			cfg.PageinCluster = 8
			s := BootConfig(m, cfg)
			testutil.SweepOnCleanup(t, s)

			procs := make([]*Process, producers)
			vas := make([]param.VAddr, producers)
			for i := range procs {
				procs[i] = newProc(t, s, "producer")
				va, err := procs[i].Mmap(0, region*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				vas[i] = va
			}

			// want[i][pg] is the last stamp producer i wrote successfully
			// to page pg (0: never written, reads back as zero fill).
			want := make([][]byte, producers)
			failed := make([]int, producers)
			sim0 := m.Clock.Now()
			for i := range want {
				want[i] = make([]byte, region)
			}
			for pass := 0; pass < passes; pass++ {
				var wg sync.WaitGroup
				for i := range procs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						stamp := byte(1 + pass + passes*i)
						for pg := 0; pg < region; pg++ {
							if err := procs[i].WriteBytes(vas[i]+param.VAddr(pg)*param.PageSize, []byte{stamp}); err != nil {
								failed[i]++
								continue
							}
							want[i][pg] = stamp
						}
					}(i)
				}
				wg.Wait()
			}
			simTime[prof] = m.Clock.Now() - sim0

			// Check by kind, not by rule, so a plan that lost a rule fails.
			fired := map[disk.FaultKind]int64{}
			for j, r := range rules {
				fired[r.Kind] += plan.Fired(j)
			}
			for _, k := range []disk.FaultKind{disk.FaultTornWrite, disk.FaultWriteError, disk.FaultReadError} {
				if fired[k] == 0 {
					t.Errorf("no %v fault fired", k)
				}
			}
			if m.Stats.Get(sim.CtrPdAsyncClusters) == 0 {
				t.Error("no async pageout cluster: the pipeline under test never ran")
			}
			t.Logf("%s: %d pageouts, %d pageins, failed accesses %v, sim %v",
				prof, m.Stats.Get(sim.CtrPageOuts), m.Stats.Get(sim.CtrPageIns), failed, simTime[prof])

			m.SwapDisk.SetFaultPlan(nil)
			buf := make([]byte, 1)
			for i, p := range procs {
				for pg := 0; pg < region; pg++ {
					if err := p.ReadBytes(vas[i]+param.VAddr(pg)*param.PageSize, buf); err != nil {
						t.Fatalf("producer %d page %d: read after lifting the plan: %v", i, pg, err)
					}
					if buf[0] != want[i][pg] {
						t.Fatalf("producer %d page %d reads %d, last successful write was %d", i, pg, buf[0], want[i][pg])
					}
				}
				p.Exit()
			}
		})
	}
	if hdd, ram := simTime["hdd97"], simTime["ramdisk"]; ram >= hdd {
		t.Errorf("ramdisk run took %v simulated, not below hdd97's %v", ram, hdd)
	}
}
