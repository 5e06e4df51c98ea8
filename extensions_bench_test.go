package bench

// Benchmarks for the paper's named extensions: vfork (§5.3 footnote 3),
// the hybrid amap implementation (§5.3), asynchronous pagein (§10), and
// the unified buffer cache (§10).

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"uvm/internal/param"
	"uvm/internal/phys"
	"uvm/internal/pmap"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
)

// BenchmarkVforkVsFork shows footnote 3: vfork's cost is independent of
// the parent's resident set, fork's is linear in it.
func BenchmarkVforkVsFork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mach := benchMachine()
		sys := uvm.Boot(mach)
		p, _ := sys.NewProcess("parent")
		const pages = 2048 // 8 MB resident
		va, _ := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		if err := p.TouchRange(va, pages*param.PageSize, true); err != nil {
			b.Fatal(err)
		}

		t0 := mach.Clock.Now()
		vc, _ := p.Vfork("vc")
		vforkCost := mach.Clock.Since(t0)
		vc.Exit()

		t1 := mach.Clock.Now()
		fc, _ := p.Fork("fc")
		forkCost := mach.Clock.Since(t1)
		fc.Exit()

		if i == 0 {
			b.ReportMetric(float64(vforkCost.Nanoseconds()), "sim-ns-vfork-8MB")
			b.ReportMetric(float64(forkCost.Nanoseconds()), "sim-ns-fork-8MB")
		}
	}
}

// BenchmarkAblationHybridAmap compares first-fault cost on a large sparse
// mapping under the array and hybrid amap implementations (§5.3).
func BenchmarkAblationHybridAmap(b *testing.B) {
	run := func(kind uvm.AmapImplKind) time.Duration {
		mach := benchMachine()
		cfg := uvm.DefaultConfig()
		cfg.AmapImpl = kind
		sys := uvm.BootConfig(mach, cfg)
		p, _ := sys.NewProcess("sparse")
		// 64 MB sparse mapping, three pages touched.
		va, _ := p.Mmap(0, 16384*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
		t0 := mach.Clock.Now()
		p.Access(va, true)
		p.Access(va+8000*param.PageSize, true)
		p.Access(va+16383*param.PageSize, true)
		return mach.Clock.Since(t0)
	}
	for i := 0; i < b.N; i++ {
		arr := run(uvm.AmapArray)
		hyb := run(uvm.AmapHybrid)
		if i == 0 {
			b.ReportMetric(float64(arr.Nanoseconds()), "sim-ns-array")
			b.ReportMetric(float64(hyb.Nanoseconds()), "sim-ns-hybrid")
		}
	}
}

// BenchmarkPVContention measures the sharded pmap reverse map against
// the single-mutex layout it replaced: GOMAXPROCS workers, each with its
// own pmap (its own simulated address space, as in parallel faults
// across processes), hammer Enter with rotating pages, so every
// operation removes one pv entry and adds another. With one bucket all
// workers serialise on one mutex; with 64 the bucket locks spread by
// frame number and the contended share collapses. The pv-contended-%
// metric reports it per configuration. Set UVM_PV_SHARDS to benchmark a
// specific shard count instead of the default pair.
func BenchmarkPVContention(b *testing.B) {
	configs := []struct {
		name   string
		shards int
	}{{"single-mutex", 1}, {"sharded-64", 64}}
	if env := os.Getenv("UVM_PV_SHARDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			b.Fatalf("UVM_PV_SHARDS=%q: %v", env, err)
		}
		configs = configs[:0]
		configs = append(configs, struct {
			name   string
			shards int
		}{fmt.Sprintf("env-%d", n), n})
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			const workerPages = 128
			clock := sim.NewClock()
			costs := sim.DefaultCosts()
			stats := sim.NewStats()
			// RAM sized from the worker count RunParallel will spawn, so
			// many-core hosts do not run the free list dry.
			mem := phys.NewMem(clock, costs, stats, runtime.GOMAXPROCS(0)*workerPages+1024)
			mmu := pmap.NewMMU(clock, costs, stats)
			mmu.SetPVShards(cfg.shards)

			var workerID atomic.Int32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := workerID.Add(1)
				pm := mmu.NewPmap(fmt.Sprintf("w%d", id))
				pages := make([]*phys.Page, workerPages)
				for i := range pages {
					pg, err := mem.Alloc(nil, 0, false)
					if err != nil {
						b.Error(err)
						return
					}
					pages[i] = pg
				}
				base := param.MmapHintBase + param.VAddr(id)<<26
				i := 0
				for pb.Next() {
					// Same VA, different page each time: every Enter is a
					// replacement — one pv removal, one pv insertion.
					pm.Enter(base+param.VAddr(i%8)*param.PageSize,
						pages[i%workerPages], param.ProtRW, false)
					i++
				}
				pm.RemoveAll()
			})
			b.StopTimer()
			if acq := stats.Get(sim.CtrPVAcquires); acq > 0 {
				b.ReportMetric(100*float64(stats.Get(sim.CtrPVContended))/float64(acq), "pv-contended-%")
			}
		})
	}
}

// BenchmarkAllocContention measures the per-CPU free-page caches against
// the single global pool they front: GOMAXPROCS workers hammer the
// allocator, each holding a small working set of frames that it
// allocates and frees in bursts. With AllocCaches=0 every operation
// takes a global queue-shard lock; with one magazine per worker almost
// every operation takes only the worker's own magazine lock, refilling
// and draining in batches. The alloc-contended-% metric reports the
// contended share of allocation-path lock acquisitions per layout. Set
// UVM_ALLOC_CACHES to benchmark a specific magazine count instead of the
// default pair.
func BenchmarkAllocContention(b *testing.B) {
	configs := []struct {
		name   string
		caches int
	}{{"single-pool", 0}, {fmt.Sprintf("cached-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)}}
	if env := os.Getenv("UVM_ALLOC_CACHES"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			b.Fatalf("UVM_ALLOC_CACHES=%q: %v", env, err)
		}
		configs = configs[:0]
		configs = append(configs, struct {
			name   string
			caches int
		}{fmt.Sprintf("env-%d", n), n})
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			const heldMax = 32
			clock := sim.NewClock()
			costs := sim.DefaultCosts()
			stats := sim.NewStats()
			// RAM sized from the worker count RunParallel will spawn, so
			// many-core hosts never run the pool dry mid-measurement.
			mem := phys.NewMem(clock, costs, stats, runtime.GOMAXPROCS(0)*2*heldMax+1024)
			if cfg.caches > 0 {
				mem.SetAllocCaches(cfg.caches, 0)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var held []*phys.Page
				for pb.Next() {
					if len(held) < heldMax {
						pg, err := mem.Alloc(nil, 0, false)
						if err != nil {
							b.Error(err)
							return
						}
						held = append(held, pg)
						continue
					}
					for _, pg := range held {
						mem.Free(pg)
					}
					held = held[:0]
				}
				for _, pg := range held {
					mem.Free(pg)
				}
			})
			b.StopTimer()
			if acq := stats.Get(sim.CtrAllocAcquires); acq > 0 {
				b.ReportMetric(100*float64(stats.Get(sim.CtrAllocContended))/float64(acq), "alloc-contended-%")
			}
		})
	}
}

// BenchmarkUBCReadVsMmap compares the two coherent paths to the same
// cached file data.
func BenchmarkUBCReadVsMmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mach := benchMachine()
		sys := uvm.Boot(mach).(*uvm.System)
		mach.FS.Create("/ubc.bin", 64*param.PageSize, nil)
		vn, _ := mach.FS.Open("/ubc.bin")
		p, _ := sys.NewProcess("reader")

		// Warm through read(2).
		buf := make([]byte, 64*param.PageSize)
		t0 := mach.Clock.Now()
		if _, err := sys.FileRead(vn, 0, buf); err != nil {
			b.Fatal(err)
		}
		readCost := mach.Clock.Since(t0)

		// Mapping the warm file is nearly free.
		t1 := mach.Clock.Now()
		va, _ := p.Mmap(0, 64*param.PageSize, param.ProtRead, vmapi.MapShared, vn, 0)
		if err := p.TouchRange(va, 64*param.PageSize, false); err != nil {
			b.Fatal(err)
		}
		mmapCost := mach.Clock.Since(t1)
		vn.Unref()
		if i == 0 {
			b.ReportMetric(float64(readCost.Microseconds()), "sim-us-read2-cold")
			b.ReportMetric(float64(mmapCost.Microseconds()), "sim-us-mmap-warm")
		}
	}
}
