package uvm

import (
	"runtime"
	"sync"
	"testing"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/sim"
	"uvm/internal/swap"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// TestPageoutLayoutFollowsVA: two processes dirty interleaved four-page
// runs at scattered offsets of regions that together are twice RAM, so the
// pagedaemon's clusters collect pages of both amaps in whatever order they
// aged. Whatever that order, the cluster is laid out for the read that
// follows: afterwards every two VA-adjacent swapped-out anons of an amap
// that left in the same cluster write hold adjacent swap slots.
func TestPageoutLayoutFollowsVA(t *testing.T) {
	const ram, region, run = 1024, 1024, 4
	s, m := bootTest(t, ram)

	// Which write command last wrote each swap block. A command's blocks pass
	// the hook before the command is counted, so the count names the command.
	var mu sync.Mutex
	cmdOf := map[int64]int64{}
	m.SwapDisk.FailWrite = func(blk int64) error {
		mu.Lock()
		cmdOf[blk] = m.Stats.Get(sim.CtrDiskWrites)
		mu.Unlock()
		return nil
	}

	var procs [2]*Process
	var vas [2]param.VAddr
	for w := range procs {
		procs[w] = newProc(t, s, "p")
		va, err := procs[w].Mmap(0, region*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		vas[w] = va
	}
	r := sim.NewRNG(7)
	for i := 0; i < 2400; i++ {
		w := i % 2
		first := r.Intn(region - run + 1)
		if err := procs[w].TouchRange(vas[w]+param.VAddr(first)*param.PageSize, run*param.PageSize, true); err != nil {
			t.Fatal(err)
		}
	}
	s.Shutdown() // the daemon and its flights are done: the amaps hold still

	together, apart := 0, 0
	for w, p := range procs {
		e := p.m.LookupQuiet(vas[w])
		swapped := func(i int) (int64, bool) {
			a := e.amap.get(e.amapOff + i)
			if a == nil || a.page != nil || a.swslot == swap.NoSlot {
				return 0, false
			}
			return a.swslot, true
		}
		for i := 0; i+1 < region; i++ {
			lo, ok1 := swapped(i)
			hi, ok2 := swapped(i + 1)
			if !ok1 || !ok2 || cmdOf[lo] != cmdOf[hi] {
				continue
			}
			if hi == lo+1 {
				together++
			} else {
				apart++
				if apart <= 5 {
					t.Errorf("process %d: pages %d and %d left in one cluster but sit in slots %d and %d", w, i, i+1, lo, hi)
				}
			}
		}
	}
	t.Logf("%d VA-adjacent pairs of one cluster in adjacent slots, %d not", together, apart)
	if apart > 0 {
		t.Errorf("%d VA-adjacent pairs of one cluster are not slot-adjacent", apart)
	}
	if together < 100 {
		t.Errorf("only %d VA-adjacent pairs shared a cluster: the workload does not exercise the layout", together)
	}
}

// TestSwapPageinClustersByDefault: on a default machine an anonymous
// region of twice RAM is dirtied and then read back in four-page runs at
// scattered offsets. A pagein fills the fault's advice window with one
// I/O, so the swap read commands are well under the pages they bring in
// (one command per page before clustering was the default).
func TestSwapPageinClustersByDefault(t *testing.T) {
	const ram, region, run = 256, 512, 4
	s, m := bootTest(t, ram)
	p := newProc(t, s, "p")
	va, err := p.Mmap(0, region*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TouchRange(va, region*param.PageSize, true); err != nil {
		t.Fatal(err)
	}
	before := m.Stats.Snapshot()
	r := sim.NewRNG(11)
	for i := 0; i < 400; i++ {
		first := r.Intn(region - run + 1)
		if err := p.TouchRange(va+param.VAddr(first)*param.PageSize, run*param.PageSize, false); err != nil {
			t.Fatal(err)
		}
	}
	after := m.Stats.Snapshot()
	reads := after[sim.CtrDiskReads] - before[sim.CtrDiskReads]
	pagedIn := after["uvm.anon.pagein"] - before["uvm.anon.pagein"]
	t.Logf("%d swap read commands paged in %d pages (%.2f per command)", reads, pagedIn, float64(pagedIn)/float64(reads))
	if reads == 0 || reads*3 > pagedIn*2 {
		t.Errorf("%d read commands for %d pages paged in: want at least 1.5 pages per command", reads, pagedIn)
	}
}

// TestClusteredPageinAllocs fences the heap traffic of a clustered
// pagein: the fault that brings an eight-page window back — eight
// frames, one read, the install, the lookahead that maps the seven
// neighbours — allocates nothing, from swap (a private anonymous region)
// and from a file (a shared file mapping whose pages were all evicted).
// The run, its frames and its I/O vector live on the faulting goroutine's
// stack.
func TestClusteredPageinAllocs(t *testing.T) {
	for _, owner := range []string{"anon", "file"} {
		t.Run(owner, func(t *testing.T) { clusteredPageinAllocs(t, owner) })
	}
}

func clusteredPageinAllocs(t *testing.T, owner string) {
	const n, centre = 8, 3
	m := testMachine(256)
	cfg := DefaultConfig()
	s := BootConfig(m, cfg)
	testutil.SweepOnCleanup(t, s)
	p := newProc(t, s, "p")
	var va param.VAddr
	var err error
	pagedInCtr := "uvm.anon.pagein"
	if owner == "file" {
		vn := mkfile(t, m, "/allocs", n, 0xA0)
		defer vn.Unref()
		va, err = p.Mmap(0, n*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		pagedInCtr = sim.CtrPageIns
	} else {
		va, err = p.Mmap(0, n*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TouchRange(va, n*param.PageSize, owner == "anon"); err != nil {
		t.Fatal(err)
	}
	e := p.m.LookupQuiet(va)
	evict := func() {
		for i := 0; i < n; i++ {
			var pg *phys.Page
			if owner == "anon" {
				pg = e.amap.get(e.amapOff + i).page
			} else {
				pg, _ = e.obj.pages.Get(i)
			}
			m.MMU.PageProtect(pg, param.ProtNone)
			pg.Referenced.Store(false)
			m.Mem.Deactivate(pg)
		}
		if freed, _ := s.reclaimScan(n, false); freed != n {
			t.Fatalf("evicted %d of %d pages", freed, n)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs uint64
	const rounds = 50
	for round := 0; round <= rounds; round++ {
		evict()
		pagedIn := m.Stats.Get(pagedInCtr)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := p.Access(va+centre*param.PageSize, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Stats.Get(pagedInCtr) - pagedIn; got != n {
			t.Fatalf("the fault paged in %d pages, want %d: the cell is not measuring a clustered pagein", got, n)
		}
		if round > 0 { // the first fault grows the page table
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	t.Logf("%d clustered pageins of %d pages: %d allocations", rounds, n, mallocs)
	if mallocs != 0 {
		t.Errorf("want no allocation")
	}
}
