package uvm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Tests for the object writeback pipeline (objwb.go): msync correctness
// (dirty-clear, range limits, aobj-to-swap), determinism of the flush
// order, the clustered async engine on both backends, gate-orchestrated
// msync-vs-fault and msync-vs-reclaim races, and the pagedaemon's
// async vnode put path.

// bootWb boots a System with the writeback pipeline tuned by tune.
func bootWb(t *testing.T, ramPages int, tune func(*Config)) (*System, *vmapi.Machine) {
	t.Helper()
	m := testMachine(ramPages)
	cfg := DefaultConfig()
	if tune != nil {
		tune(&cfg)
	}
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	return s, m
}

// dirtyPages write-faults the given pages of a mapping.
func dirtyPages(t *testing.T, p *Process, va param.VAddr, idxs ...int) {
	t.Helper()
	for _, i := range idxs {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{0xD0 + byte(i)}); err != nil {
			t.Fatalf("dirty page %d: %v", i, err)
		}
	}
}

// TestMsyncSecondPassWritesNothing is the dirty-clear regression test:
// a successful Msync must leave the flushed pages clean, so a second
// Msync over an untouched range performs zero writes. Asserted through
// the pager counters (vm.pageouts) and the raw disk write counters, in
// both the synchronous and the asynchronous pipeline.
func TestMsyncSecondPassWritesNothing(t *testing.T) {
	for _, mode := range []struct {
		name string
		tune func(*Config)
	}{
		{"sync", nil},
		{"async", func(c *Config) { c.AsyncWriteback = true }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, m := bootWb(t, 256, mode.tune)
			vn := mkfile(t, m, "/wb", 8, 0x11)
			defer vn.Unref()
			p := newProc(t, s, "p")
			va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
			if err != nil {
				t.Fatal(err)
			}
			dirtyPages(t, p, va, 0, 1, 2, 5)
			if err := p.Msync(va, 8*param.PageSize); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats.Get(sim.CtrPageOuts); got != 4 {
				t.Fatalf("first msync wrote %d pages, want 4", got)
			}
			outs := m.Stats.Get(sim.CtrPageOuts)
			writes := m.Stats.Get(sim.CtrDiskWrites) + m.Stats.Get("disk.writes.deferred")
			if err := p.Msync(va, 8*param.PageSize); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats.Get(sim.CtrPageOuts) - outs; got != 0 {
				t.Errorf("second msync over untouched range wrote %d pages, want 0", got)
			}
			if got := m.Stats.Get(sim.CtrDiskWrites) + m.Stats.Get("disk.writes.deferred") - writes; got != 0 {
				t.Errorf("second msync issued %d disk writes, want 0", got)
			}
			// Redirtying one page makes exactly that page flushable again.
			dirtyPages(t, p, va, 2)
			if err := p.Msync(va, 8*param.PageSize); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats.Get(sim.CtrPageOuts) - outs; got != 1 {
				t.Errorf("msync after redirty wrote %d pages, want 1", got)
			}
		})
	}
}

// TestMsyncAobjFlushesToSwap covers the new aobj backend: msync of a
// shared anonymous mapping pushes the dirty pages to swap (clustered,
// with AsyncWriteback), leaves them resident and clean, and the data
// survives a later eviction/pagein round trip from those slots.
func TestMsyncAobjFlushesToSwap(t *testing.T) {
	for _, mode := range []struct {
		name string
		tune func(*Config)
	}{
		{"sync", nil},
		{"async", func(c *Config) { c.AsyncWriteback = true; c.WritebackCluster = 8 }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, m := bootWb(t, 256, mode.tune)
			p := newProc(t, s, "p")
			const pages = 8
			va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapShared, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pages; i++ {
				if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{0xA0 + byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			slotsBefore := m.Stats.Get(sim.CtrSwapSlotsLive)
			if err := p.Msync(va, pages*param.PageSize); err != nil {
				t.Fatal(err)
			}
			if got := m.Stats.Get(sim.CtrPageOuts); got != pages {
				t.Fatalf("aobj msync wrote %d pages, want %d", got, pages)
			}
			if got := m.Stats.Get(sim.CtrSwapSlotsLive) - slotsBefore; got != pages {
				t.Fatalf("aobj msync allocated %d swap slots, want %d", got, pages)
			}
			// Still resident (msync cleans, it does not evict), and intact.
			res, err := p.Mincore(va, pages*param.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if !r {
					t.Fatalf("page %d evicted by msync", i)
				}
			}
			buf := make([]byte, 1)
			for i := 0; i < pages; i++ {
				if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != 0xA0+byte(i) {
					t.Fatalf("page %d corrupted after msync: %#x", i, buf[0])
				}
			}
		})
	}
}

// TestMsyncDeterministicOrder pins the flush order: two identical
// single-threaded runs must spend identical simulated time and identical
// disk seeks, which fails if the writeback order follows Go map
// iteration (the original Msync iterated o.pages directly).
func TestMsyncDeterministicOrder(t *testing.T) {
	run := func() (time.Duration, int64) {
		m := testMachine(512)
		cfg := DefaultConfig()
		s := BootConfig(m, cfg)
		defer testutil.ShutdownSweep(t, s)
		err := m.FS.Create("/det", 64*param.PageSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		vn, err := m.FS.Open("/det")
		if err != nil {
			t.Fatal(err)
		}
		defer vn.Unref()
		p, err := s.NewProcess("p")
		if err != nil {
			t.Fatal(err)
		}
		va, err := p.Mmap(0, 64*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Dirty a scattered, non-monotonic set of pages.
		for _, i := range []int{63, 3, 17, 4, 41, 5, 29, 30, 2, 55} {
			if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Msync(va, 64*param.PageSize); err != nil {
			t.Fatal(err)
		}
		return m.Clock.Now(), m.Stats.Get(sim.CtrDiskSeeks)
	}
	t1, s1 := run()
	for i := 0; i < 5; i++ {
		t2, s2 := run()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("msync not deterministic: run0 %v/%d seeks, run%d %v/%d seeks", t1, s1, i+1, t2, s2)
		}
	}
}

// TestSortedPageIdxsNarrowRange: a flush walks an object's page index
// over [lo, hi], narrow or whole-object, and must name exactly the
// resident indices in range, in ascending order.
func TestSortedPageIdxsNarrowRange(t *testing.T) {
	resident := []int{2, 3, 4, 5, 17, 29, 30, 41, 55, 63} // ascending
	o := &uobject{}
	for _, idx := range resident {
		o.pages.Set(idx, nil)
	}
	for _, r := range [][2]int{{0, maxPageIdx}, {0, 63}, {3, 5}, {4, 12}, {6, 16}, {30, 30}, {56, 64}, {9, 2}} {
		var want []int
		for _, idx := range resident {
			if idx >= r[0] && idx <= r[1] {
				want = append(want, idx)
			}
		}
		var got []int
		for idx := range o.pages.Range(r[0], r[1]) {
			got = append(got, idx)
		}
		if !slices.Equal(got, want) {
			t.Errorf("pages.Range(%d, %d) = %v, want %v", r[0], r[1], got, want)
		}
	}
}

// TestMsyncClustersContiguousRuns checks the run policy, which is the
// same whether or not the flight is asynchronous: 16 contiguous dirty
// pages leave in ceil(16/8)=2 cluster I/Os, and a hole in the dirty range
// splits the run. DisableClustering is the one switch for "no clustering
// anywhere": under it every page is its own command, in both modes.
func TestMsyncClustersContiguousRuns(t *testing.T) {
	for _, mode := range []struct {
		name     string
		tune     func(*Config)
		wantCmds int64
	}{
		{"sync", func(c *Config) { c.WritebackCluster = 8 }, 4},
		{"async", func(c *Config) { c.AsyncWriteback = true; c.WritebackCluster = 8 }, 4},
		{"sync-noclustering", func(c *Config) { c.DisableClustering = true }, 19},
		{"async-noclustering", func(c *Config) { c.AsyncWriteback = true; c.DisableClustering = true }, 19},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, m := bootWb(t, 256, mode.tune)
			vn := mkfile(t, m, "/cl", 32, 0)
			defer vn.Unref()
			p := newProc(t, s, "p")
			va, err := p.Mmap(0, 32*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				dirtyPages(t, p, va, i)
			}
			dirtyPages(t, p, va, 20, 21, 25)
			before := m.Stats.Snapshot()
			if err := p.Msync(va, 32*param.PageSize); err != nil {
				t.Fatal(err)
			}
			after := m.Stats.Snapshot()
			delta := func(name string) int64 { return after[name] - before[name] }
			// Runs: [0..7] [8..15] [20,21] [25] = 4 commands, 19 pages.
			if got := delta(sim.CtrDiskWrites) + delta(sim.CtrDiskWritesDeferred); got != mode.wantCmds {
				t.Errorf("disk write commands = %d, want %d", got, mode.wantCmds)
			}
			if got := delta(sim.CtrPageOuts); got != 19 {
				t.Errorf("pages written back = %d, want 19", got)
			}
			// uvm.objwb.* count the asynchronous engine only.
			wantClusters, wantPages := int64(0), int64(0)
			if s.cfg.AsyncWriteback {
				wantClusters, wantPages = mode.wantCmds, 19
			}
			if got := delta(sim.CtrObjWbClusters); got != wantClusters {
				t.Errorf("writeback clusters = %d, want %d", got, wantClusters)
			}
			if got := delta(sim.CtrObjWbPages); got != wantPages {
				t.Errorf("writeback pages = %d, want %d", got, wantPages)
			}
			// Everything really reached the file.
			raw := make([]byte, param.PageSize)
			for _, i := range []int{0, 7, 15, 20, 25} {
				if err := vn.ReadPage(i, raw); err != nil {
					t.Fatal(err)
				}
				if raw[0] != 0xD0+byte(i) {
					t.Errorf("page %d not on disk after msync: %#x", i, raw[0])
				}
			}
		})
	}
}

// TestMsyncVsConcurrentFaultRace drives the ownership rule
// deterministically: a write fault that hits a page mid-flush must sleep
// until the completion, then redirty the page. The wbGate holds every
// completion until the concurrent writer has provably blocked on the
// busy page (uvm.objwb.waits rises).
func TestMsyncVsConcurrentFaultRace(t *testing.T) {
	s, m := bootWb(t, 256, func(c *Config) {
		c.AsyncWriteback = true
		c.WritebackCluster = 8
	})
	vn := mkfile(t, m, "/race", 4, 0)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 4*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, param.PageSize)
	if err := p.WriteBytes(va, old); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	s.wbGate = func() { <-release }
	defer func() { s.wbGate = nil }()

	writerDone := make(chan error, 1)
	s.msyncGate = func() {
		// Clusters submitted, completions held at the gate: the page is
		// busy and write-protected. A concurrent store must block.
		go func() {
			writerDone <- p.WriteBytes(va, []byte{0xBB})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for m.Stats.Get(sim.CtrObjWbWaits) == 0 {
			if time.Now().After(deadline) {
				t.Error("concurrent writer never blocked on the busy page")
				break
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case err := <-writerDone:
			t.Errorf("writer finished while the flush owned the page (err=%v)", err)
		default:
		}
		close(release) // let the completion run; the writer wakes after it
	}
	defer func() { s.msyncGate = nil }()

	if err := p.Msync(va, param.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := <-writerDone; err != nil {
		t.Fatalf("blocked writer failed: %v", err)
	}

	// The flush wrote the pre-store data; the store landed after and
	// redirtied the page.
	raw := make([]byte, param.PageSize)
	if err := vn.ReadPage(0, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, old) {
		t.Fatalf("disk holds neither the flushed snapshot: %#x", raw[0])
	}
	got := make([]byte, 1)
	if err := p.ReadBytes(va, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xBB {
		t.Fatalf("store lost: memory holds %#x, want 0xBB", got[0])
	}
	s.msyncGate, s.wbGate = nil, nil
	if err := p.Msync(va, param.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := vn.ReadPage(0, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xBB {
		t.Fatalf("second msync did not flush the redirtied page: %#x", raw[0])
	}
}

// TestMsyncVsPagedaemonRace: a reclaim pass that runs while msync's
// clusters are in flight must TryLock/busy-skip the flushed pages — they
// are neither freed nor double-written — and the msync still completes
// with intact data on disk.
func TestMsyncVsPagedaemonRace(t *testing.T) {
	s, m := bootWb(t, 256, func(c *Config) {
		c.AsyncWriteback = true
		c.WritebackCluster = 8
	})
	vn := mkfile(t, m, "/pdrace", 8, 0)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		dirtyPages(t, p, va, i)
	}

	release := make(chan struct{})
	s.wbGate = func() { <-release }
	defer func() { s.wbGate = nil }()
	s.msyncGate = func() {
		// Pages busy, completions held: run a reclaim pass over
		// everything. It must skip every busy page.
		s.reclaimScan(64, false)
		close(release)
	}
	defer func() { s.msyncGate = nil }()

	if err := p.Msync(va, 8*param.PageSize); err != nil {
		t.Fatal(err)
	}
	s.msyncGate, s.wbGate = nil, nil

	// The flushed pages survived the reclaim pass resident...
	res, err := p.Mincore(va, 8*param.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r {
			t.Errorf("page %d freed by reclaim while riding the msync flush", i)
		}
	}
	// ...and the flush reached the file intact.
	raw := make([]byte, param.PageSize)
	for i := 0; i < 8; i++ {
		if err := vn.ReadPage(i, raw); err != nil {
			t.Fatal(err)
		}
		if raw[0] != 0xD0+byte(i) {
			t.Errorf("page %d corrupted across the race window: %#x", i, raw[0])
		}
	}
}

// TestVnodeRecycleClusteredWriteback forces vnode recycling with dirty
// mapped pages under the async pipeline: the recycle hook flushes them
// as clusters, waits for the completions, and the data is on disk when
// the vnode is gone.
func TestVnodeRecycleClusteredWriteback(t *testing.T) {
	s, m := bootWb(t, 512, func(c *Config) {
		c.AsyncWriteback = true
		c.WritebackCluster = 8
	})
	vn := mkfile(t, m, "/recycle", 8, 0)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 8*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		dirtyPages(t, p, va, i)
	}
	// Unmap (last-unmap detach fires its fire-and-forget flush) and drop
	// the vnode, then exhaust the vnode table so /recycle is recycled.
	if err := p.Munmap(va, 8*param.PageSize); err != nil {
		t.Fatal(err)
	}
	vn.Unref()
	recycles := m.Stats.Get("vfs.recycles")
	for i := 0; m.Stats.Get("vfs.recycles") == recycles; i++ {
		name := fmt.Sprintf("/filler%d", i)
		if err := m.FS.Create(name, param.PageSize, nil); err != nil {
			t.Fatal(err)
		}
		fv, err := m.FS.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		fv.Unref()
		if i > 2*m.FS.MaxVnodes() {
			t.Fatal("vnode table never recycled the test vnode")
		}
	}
	if got := m.Stats.Get(sim.CtrObjWbClusters); got == 0 {
		t.Error("no writeback clusters: detach/recycle did not use the pipeline")
	}
	// Reopen: the data must come back from the file, not from (freed)
	// memory.
	vn2, err := m.FS.Open("/recycle")
	if err != nil {
		t.Fatal(err)
	}
	defer vn2.Unref()
	raw := make([]byte, param.PageSize)
	for i := 0; i < 8; i++ {
		if err := vn2.ReadPage(i, raw); err != nil {
			t.Fatal(err)
		}
		if raw[0] != 0xD0+byte(i) {
			t.Errorf("page %d lost across recycle: %#x", i, raw[0])
		}
	}
}

// TestPdaemonVnodeAsyncPut covers the reclaim flavour of the pipeline:
// under memory pressure with AsyncPageout, dirty file pages leave
// through per-object async cluster flights (owner lock handed to the
// last completion) and every byte survives the round trip.
func TestPdaemonVnodeAsyncPut(t *testing.T) {
	s, m := bootWb(t, 128, func(c *Config) {
		c.AsyncPageout = true
		c.PageoutWindow = 4
	})
	vn := mkfile(t, m, "/big", 512, 0)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 512*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty 4x RAM of file pages, then read everything back.
	for i := 0; i < 512; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	buf := make([]byte, 2)
	for i := 0; i < 512; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, buf); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("page %d corrupted: %#x %#x", i, buf[0], buf[1])
		}
	}
	s.Shutdown()
	if got := m.Stats.Get(sim.CtrObjWbClusters); got == 0 {
		t.Errorf("no vnode writeback flights despite pressure; counters:\n%s", m.Stats.String())
	}
	if got := m.Stats.Get(sim.CtrObjWbErrors); got != 0 {
		t.Errorf("writeback errors: %d", got)
	}
}

// TestPdaemonVnodePutClusters is the same pressure on the default
// (synchronous) machine: the pass's dirty file pages are batched per
// object and leave as runs of consecutive file blocks, so the file disk
// sees far fewer write commands than pages — and every byte survives.
func TestPdaemonVnodePutClusters(t *testing.T) {
	s, m := bootWb(t, 128, nil)
	vn := mkfile(t, m, "/big", 512, 0)
	defer vn.Unref()
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, 512*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	pages, cmds := m.Stats.Get(sim.CtrPageOuts), m.Stats.Get(sim.CtrDiskWrites)
	if pages < 256 {
		t.Fatalf("only %d pages went out under 4x overcommit", pages)
	}
	if cmds*4 > pages {
		t.Errorf("%d write commands for %d file pages: synchronous pageout is not clustering", cmds, pages)
	}
	buf := make([]byte, 2)
	for i := 0; i < 512; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, buf); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("page %d corrupted: %#x %#x", i, buf[0], buf[1])
		}
	}
}

// TestMsyncPastEOFPageFailsWithoutPoisoningRun: a mapping past EOF
// zero-fills, so a store can dirty a page with no home in the file.
// Msync must report the failure (as the synchronous put always did) —
// but the in-range dirty pages sharing its contiguous run must still
// reach the disk, and the system must not livelock retrying the run.
func TestMsyncPastEOFPageFailsWithoutPoisoningRun(t *testing.T) {
	for _, mode := range []struct {
		name string
		tune func(*Config)
	}{
		{"sync", nil},
		{"async", func(c *Config) { c.AsyncWriteback = true; c.WritebackCluster = 8 }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, m := bootWb(t, 256, mode.tune)
			vn := mkfile(t, m, "/eof", 4, 0) // 4 file pages...
			defer vn.Unref()
			p := newProc(t, s, "p")
			// ...mapped over 6 pages: indices 4 and 5 zero-fill past EOF.
			va, err := p.Mmap(0, 6*param.PageSize, param.ProtRW, vmapi.MapShared, vn, 0)
			if err != nil {
				t.Fatal(err)
			}
			dirtyPages(t, p, va, 2, 3, 4)
			if err := p.Msync(va, 6*param.PageSize); err == nil {
				t.Fatal("msync of a dirty past-EOF page reported success")
			}
			// The in-range pages of the same contiguous run still landed.
			raw := make([]byte, param.PageSize)
			for _, i := range []int{2, 3} {
				if err := vn.ReadPage(i, raw); err != nil {
					t.Fatal(err)
				}
				if raw[0] != 0xD0+byte(i) {
					t.Errorf("in-range page %d not flushed past the EOF failure: %#x", i, raw[0])
				}
			}
			// The page itself stays dirty and usable.
			got := make([]byte, 1)
			if err := p.ReadBytes(va+4*param.PageSize, got); err != nil || got[0] != 0xD4 {
				t.Errorf("past-EOF page lost: err=%v data=%#x", err, got[0])
			}
		})
	}
}

// TestAobjPageinClusterRoundTrip evicts a shared-anonymous region and
// faults it back with clustering on: the data must be intact, the
// cluster counters must show neighbour rides, and two identical
// single-threaded runs must behave identically.
func TestAobjPageinClusterRoundTrip(t *testing.T) {
	run := func(cluster int) (string, int64, int64) {
		m := testMachine(64)
		cfg := DefaultConfig()
		cfg.PageinCluster = cluster
		s := BootConfig(m, cfg)
		defer testutil.ShutdownSweep(t, s)
		p, err := s.NewProcess("p")
		if err != nil {
			t.Fatal(err)
		}
		const pages = 192 // 3x RAM: the sweep forces aobj pageout
		va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapShared, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i++ {
			if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
		sum := ""
		buf := make([]byte, 2)
		for i := 0; i < pages; i++ {
			if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(i) || buf[1] != byte(i>>8) {
				t.Fatalf("cluster=%d: page %d corrupted: %#x %#x", cluster, i, buf[0], buf[1])
			}
			sum += fmt.Sprintf("%x.", buf)
		}
		return sum, m.Stats.Get(sim.CtrAobjPageinClusters), m.Stats.Get(sim.CtrAobjPageinClustered)
	}

	sum1, clusters, rides := run(8)
	if clusters == 0 || rides == 0 {
		t.Errorf("aobj pagein never clustered: %d clusters, %d rides", clusters, rides)
	}
	// Determinism: identical runs, identical behaviour.
	sum2, clusters2, rides2 := run(8)
	if sum1 != sum2 || clusters != clusters2 || rides != rides2 {
		t.Errorf("aobj clustered pagein not deterministic: %d/%d vs %d/%d clusters/rides",
			clusters, rides, clusters2, rides2)
	}
	// The default is the advice window, which is what a cap of 8 allows.
	if sum0, c0, r0 := run(0); sum0 != sum1 || c0 != clusters || r0 != rides {
		t.Errorf("default differs from a cap of 8: %d/%d vs %d/%d clusters/rides", c0, r0, clusters, rides)
	}
	// And the unclustered ablation never rides.
	_, c1, r1 := run(1)
	if c1 != 0 || r1 != 0 {
		t.Errorf("one slot per pagein but counters moved: %d/%d", c1, r1)
	}
}
