package uvm

import (
	"fmt"
	"sync"
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/vmapi/testutil"
)

// Tests for the reclaim I/O pipeline: asynchronous cluster pageout
// (completion callbacks racing faults and Shutdown), parallel reclaim
// workers racing allocators, and clustered pagein.

// bootPipeline boots a System on a small machine with the given pipeline
// tuning applied on top of the defaults.
func bootPipeline(t *testing.T, ramPages int, tune func(*Config)) (*System, *vmapi.Machine) {
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

// sweepPattern writes one recognisable byte per page across a region and
// then reads every page back, verifying the round trip through pageout
// and pagein.
func sweepPattern(t *testing.T, p *Process, va param.VAddr, pages int) {
	t.Helper()
	for i := 0; i < pages; i++ {
		if err := p.WriteBytes(va+param.VAddr(i)*param.PageSize, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	buf := make([]byte, 2)
	for i := 0; i < pages; i++ {
		if err := p.ReadBytes(va+param.VAddr(i)*param.PageSize, buf); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("page %d corrupted: got %#x %#x", i, buf[0], buf[1])
		}
	}
}

// TestAsyncPageoutRoundTrip overcommits a small machine with async
// cluster pageout enabled and verifies every page survives the trip out
// and back — pageout completions run on swap I/O goroutines while the
// workload keeps faulting.
func TestAsyncPageoutRoundTrip(t *testing.T) {
	s, m := bootPipeline(t, 128, func(c *Config) {
		c.AsyncPageout = true
		c.PageoutWindow = 4
	})
	p := newProc(t, s, "sweep")
	const pages = 512 // 4x RAM
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepPattern(t, p, va, pages)
	s.Shutdown() // drains in-flight completions before we read counters
	if m.Stats.Get(sim.CtrPdAsyncClusters) == 0 {
		t.Errorf("no async clusters submitted; counters:\n%s", m.Stats.String())
	}
	if got := m.Stats.Get(sim.CtrPdAsyncErrors); got != 0 {
		t.Errorf("async write errors: %d", got)
	}
	if s.flights.Load() != 0 {
		t.Error("async writes still in flight after Shutdown")
	}
}

// TestAsyncCompletionRacesShutdown repeatedly tears a system down while
// async pageout completions are in flight and allocators are mid-fault:
// Shutdown must release blocked allocators, drain the in-flight window,
// and leave the system usable (direct reclaim) — no hang, no race, no
// double free.
func TestAsyncCompletionRacesShutdown(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		m := testMachine(96)
		cfg := DefaultConfig()
		cfg.AsyncPageout = true
		cfg.PageoutWindow = 2
		s := BootConfig(m, cfg)
		testutil.SweepOnCleanup(t, s)

		const workers, pages = 3, 96
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
				va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW,
					vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
				if err != nil {
					errs <- err
					return
				}
				errs <- p.TouchRange(va, pages*param.PageSize, true)
			}(w)
		}
		// Shut down mid-workload: completions, workers and Shutdown race.
		s.Shutdown()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("iter %d: worker failed across shutdown: %v", iter, err)
			}
		}
		if s.flights.Load() != 0 {
			t.Fatalf("iter %d: async writes survived Shutdown", iter)
		}
	}
}

// TestPageinClusterReadsNeighbours drives a deterministic single-thread
// sweep that pages a region out in contiguous clusters, then re-faults
// it with clustered pagein enabled: neighbour pages must come back with
// the faulting page in shared I/Os, and every byte must be intact.
func TestPageinClusterReadsNeighbours(t *testing.T) {
	s, m := bootPipeline(t, 128, func(c *Config) {
		c.PageinCluster = 8
	})
	p := newProc(t, s, "sweep")
	const pages = 256
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepPattern(t, p, va, pages)
	if m.Stats.Get(sim.CtrPageinClusters) == 0 {
		t.Errorf("no clustered pageins; counters:\n%s", m.Stats.String())
	}
	if m.Stats.Get(sim.CtrPageinClustered) == 0 {
		t.Error("clustered pageins brought in no extra pages")
	}
	// Clustering must *reduce* pagein I/Os: the extra pages rode along.
	ios := m.Stats.Get(sim.CtrSwapIOs)
	t.Logf("swap IOs=%d pagein clusters=%d extra pages=%d",
		ios, m.Stats.Get(sim.CtrPageinClusters), m.Stats.Get(sim.CtrPageinClustered))
}

// TestPageinClusterMatchesSingleSlotData cross-checks clustered pagein
// against the single-slot baseline: identical workloads on identical
// machines must surface identical bytes, clustering being purely an I/O
// batching change.
func TestPageinClusterMatchesSingleSlotData(t *testing.T) {
	run := func(window int) *System {
		m := testMachine(128)
		cfg := DefaultConfig()
		cfg.PageinCluster = window
		s := BootConfig(m, cfg)
		testutil.SweepOnCleanup(t, s)
		p := newProc(t, s, "sweep")
		const pages = 192
		va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sweepPattern(t, p, va, pages)
		return s
	}
	run(1) // single-slot baseline; sweepPattern asserts the data
	run(8) // clustered; sweepPattern asserts the data
	run(0) // the default, the advice window; sweepPattern asserts the data
}
