package experiments

import (
	"runtime"
	"testing"

	"uvm/internal/bsdvm"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// TestScalingUVMFaultThroughput runs the parallel-fault experiment on
// UVM and checks that throughput improves with goroutine count. True
// wall-clock scaling needs real cores: on a single-CPU host goroutines
// time-slice and no speedup is physically possible, so the ratio
// assertion only applies when GOMAXPROCS allows parallelism. The
// experiment itself (and its internal consistency checks) runs
// everywhere.
func TestScalingUVMFaultThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment skipped in -short mode")
	}
	// Wall-clock measurement on a shared machine is noisy: take the best
	// of a few attempts before judging the ratio.
	var single, parallel Point
	ratio := 0.0
	for attempt := 0; attempt < 3 && ratio < 2.0; attempt++ {
		points, err := Scaling("uvm", uvm.Boot, []int{1, 8}, scalingDefaultCaches)
		if err != nil {
			t.Fatal(err)
		}
		single, parallel = points[0], points[1]
		if single.Ops != 1*scalingFaultsPerWorker || parallel.Ops != 8*scalingFaultsPerWorker {
			t.Fatalf("fault accounting wrong: %+v %+v", single, parallel)
		}
		if r := parallel.PerSecond() / single.PerSecond(); r > ratio {
			ratio = r
		}
	}
	t.Logf("uvm fault throughput: 1 goroutine %.0f/s, 8 goroutines %.0f/s (best %.2fx, GOMAXPROCS=%d)",
		single.PerSecond(), parallel.PerSecond(), ratio, runtime.GOMAXPROCS(0))

	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: wall-clock scaling not observable without cores", runtime.GOMAXPROCS(0))
	}
	if ratio < 2.0 {
		t.Errorf("uvm fault throughput at 8 goroutines only %.2fx of 1 goroutine, want >= 2x", ratio)
	}
}

// TestScalingPVContention checks that the sharded pv table removes the
// reverse-map serialisation point: at 8 goroutines, the contended share
// of pv bucket acquisitions stays small, and is no worse than what the
// same workload suffers on the single-mutex layout
// (pmap.MMU.SetPVShards(1) — the pre-sharding arrangement, which the
// contrast booter restores). Contention needs real parallelism to exist
// at all, so the comparative assertion only applies with enough cores.
func TestScalingPVContention(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment skipped in -short mode")
	}
	singleMutexBoot := func(m *vmapi.Machine) vmapi.System {
		m.MMU.SetPVShards(1)
		return uvm.Boot(m)
	}
	sharded, err := Scaling("uvm", uvm.Boot, []int{8}, scalingDefaultCaches)
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := Scaling("uvm-pv1", singleMutexBoot, []int{8}, scalingDefaultCaches)
	if err != nil {
		t.Fatal(err)
	}
	sp, up := sharded[0], unsharded[0]
	pvAcq := func(pt Point) int64 { return pt.Stats.Get(sim.CtrPVAcquires) }
	pvCont := func(pt Point) int64 { return pt.Stats.Get(sim.CtrPVContended) }
	if pvAcq(sp) == 0 || pvAcq(up) == 0 {
		t.Fatalf("pv acquisition counters missing: sharded %+v single %+v", sp, up)
	}
	t.Logf("pv contention at 8 goroutines: sharded %.3f%% (%d/%d), single-mutex %.3f%% (%d/%d)",
		100*sp.PVContentionRatio(), pvCont(sp), pvAcq(sp),
		100*up.PVContentionRatio(), pvCont(up), pvAcq(up))
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: lock contention not observable without cores", runtime.GOMAXPROCS(0))
	}
	if r := sp.PVContentionRatio(); r > 0.10 {
		t.Errorf("sharded pv table contended on %.1f%% of acquisitions, want <= 10%%", 100*r)
	}
	if sp.PVContentionRatio() > up.PVContentionRatio() {
		t.Errorf("sharded pv contention (%.3f%%) exceeds single-mutex contention (%.3f%%)",
			100*sp.PVContentionRatio(), 100*up.PVContentionRatio())
	}
}

// TestScalingAllocContention checks the tentpole claim of the per-CPU
// free-page caches: at 8 goroutines, the contended share of
// allocation-path lock acquisitions with magazines on is no worse than
// the same workload on the single global pool (AllocCaches=0), and stays
// small in absolute terms. Allocator contention needs real parallelism
// to exist at all, so the comparative assertion only applies with enough
// cores; the runs and their accounting checks execute everywhere.
func TestScalingAllocContention(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment skipped in -short mode")
	}
	cached, err := Scaling("uvm", uvm.Boot, []int{8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Scaling("uvm-pool", uvm.Boot, []int{8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, sp := cached[0], single[0]
	allocAcq := func(pt Point) int64 { return pt.Stats.Get(sim.CtrAllocAcquires) }
	allocCont := func(pt Point) int64 { return pt.Stats.Get(sim.CtrAllocContended) }
	if allocAcq(cp) == 0 || allocAcq(sp) == 0 {
		t.Fatalf("alloc acquisition counters missing: cached %+v single %+v", cp, sp)
	}
	if cp.Variant != "8 caches" || sp.Variant != "0 caches" {
		t.Fatalf("layouts mislabelled: cached %+v single %+v", cp, sp)
	}
	// Note the acquisition counts are similar between layouts — cached
	// allocation still takes one (magazine) lock per alloc, plus batched
	// refills. The point is *which* lock: private magazines barely
	// contend, the shared pool's shard locks do. That only shows in the
	// contended share, which needs real cores to exist at all.
	t.Logf("alloc contention at 8 goroutines: cached %.3f%% (%d/%d), single-pool %.3f%% (%d/%d)",
		100*cp.AllocContentionRatio(), allocCont(cp), allocAcq(cp),
		100*sp.AllocContentionRatio(), allocCont(sp), allocAcq(sp))
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: lock contention not observable without cores", runtime.GOMAXPROCS(0))
	}
	if r := cp.AllocContentionRatio(); r > 0.10 {
		t.Errorf("cached allocator contended on %.1f%% of acquisitions, want <= 10%%", 100*r)
	}
	if cp.AllocContentionRatio() > sp.AllocContentionRatio() {
		t.Errorf("cached alloc contention (%.3f%%) exceeds single-pool contention (%.3f%%)",
			100*cp.AllocContentionRatio(), 100*sp.AllocContentionRatio())
	}
}

// TestScalingRunsOnBothSystems smoke-tests the experiment driver end to
// end at small scale: both systems complete the workload and report
// plausible numbers.
func TestScalingRunsOnBothSystems(t *testing.T) {
	for _, nb := range []NamedBooter{{"bsdvm", bsdvm.Boot}, {"uvm", uvm.Boot}} {
		points, err := Scaling(nb.Name, nb.Boot, []int{1, 2}, scalingDefaultCaches)
		if err != nil {
			t.Fatalf("%s: %v", nb.Name, err)
		}
		for _, pt := range points {
			if pt.PerSecond() <= 0 || pt.Wall <= 0 {
				t.Fatalf("%s: degenerate point %+v", nb.Name, pt)
			}
		}
	}
}
