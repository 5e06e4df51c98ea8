package experiments

import (
	"fmt"
	"io"
	"runtime"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

// Scaling measures multicore fault throughput — the experiment the paper
// could not run (UVM shipped under the pre-SMP BSD big lock) but whose
// locking structure this reproduction extends to exploit. N goroutines,
// each with its own process and its own anonymous region, take write
// faults as fast as they can; the metric is wall-clock faults per second
// across the whole machine.
//
// Under internal/bsdvm every fault serialises on the system big lock, so
// adding goroutines cannot help. Under internal/uvm the fault path takes
// only its own process' map lock (shared), per-amap/anon locks and
// sharded page-queue locks, so disjoint processes fault in parallel and
// throughput rises with goroutine count — when the host actually has
// cores to run them (wall-clock scaling is bounded by GOMAXPROCS).

// scalingFaultsPerWorker bounds each worker's share of work so the
// experiment finishes quickly even at one goroutine.
const scalingFaultsPerWorker = 3000

// scalingRegionPages is each worker's mapping size; workers munmap and
// remap the region once it is fully touched, so every Access is a real
// fault, never a pmap fast-path hit.
const scalingRegionPages = 64

// scalingDefaultCaches is the magazine count the report runs with:
// sized for the experiment's largest worker count, so each of the
// up-to-8 faulting goroutines usually hashes to its own magazine.
const scalingDefaultCaches = 8

// Scaling runs the fault-throughput experiment for each goroutine count
// on the given booter, with allocCaches per-CPU free-page magazines (the
// configuration the scaling story is about; 0 is the single global pool,
// for contrast). Every run boots a fresh machine so clock and queue
// state never leak between points.
func Scaling(name string, boot vmapi.Booter, workers []int, allocCaches int) ([]Point, error) {
	return sweep(workers, func(n int) (Point, error) {
		return scalingRun(profile, name, boot, n, allocCaches)
	})
}

// scalingRun is one point: workers clients, each taking
// scalingFaultsPerWorker write faults over a region it maps, touches
// through and unmaps again.
func scalingRun(prof, name string, boot vmapi.Booter, workers, allocCaches int) (Point, error) {
	const length = scalingRegionPages * param.PageSize
	type region struct {
		p  vmapi.Process
		va param.VAddr
	}
	regions := make([]region, workers)
	return measure(name, fmt.Sprintf("%d caches", allocCaches), workload.Run{
		// RAM sized so all workers fault without ever waking the
		// pagedaemon: the experiment isolates fault-path locking, not
		// reclaim.
		Machine: vmapi.MachineConfig{
			RAMPages:    workers*scalingRegionPages*4 + 4096,
			SwapPages:   16384,
			FSPages:     1024,
			MaxVnodes:   16,
			Profile:     prof,
			AllocCaches: allocCaches,
		},
		Boot:    boot,
		Clients: workers,
		Ops:     scalingFaultsPerWorker,
		Setup: func(c *workload.Client) (err error) {
			regions[c.ID].p, err = c.NewProcess(fmt.Sprintf("scale%d", c.ID))
			return err
		},
		// One request is one fault (untimed: the metric is throughput):
		// the region is mapped before its first page and unmapped after
		// its last, or after the run's last fault.
		Op: func(c *workload.Client, i int) (err error) {
			r, pg := &regions[c.ID], i%scalingRegionPages
			if pg == 0 {
				if r.va, err = r.p.Mmap(0, length, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0); err != nil {
					return err
				}
			}
			if err := r.p.Access(r.va+param.VAddr(pg)*param.PageSize, true); err != nil {
				return err
			}
			if pg == scalingRegionPages-1 || i == scalingFaultsPerWorker-1 {
				return r.p.Munmap(r.va, length)
			}
			return nil
		},
	})
}

// ReportScaling renders the experiment for both systems at 1/2/4/8
// goroutines.
func ReportScaling(w io.Writer, boots []NamedBooter) error {
	header(w, "Scaling: parallel fault throughput (wall clock)")
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	workers := []int{1, 2, 4, 8}
	for _, nb := range boots {
		points, err := Scaling(nb.Name, nb.Boot, workers, scalingDefaultCaches)
		if err != nil {
			return err
		}
		base := points[0].PerSecond()
		for _, pt := range points {
			fmt.Fprintf(w, "%-6s %2d goroutines: %9.0f faults/s  (%.2fx)  pv-contention %5.2f%% (%d/%d)  alloc-contention %5.2f%% (%d/%d, %s)\n",
				pt.Name, pt.Clients, pt.PerSecond(), pt.PerSecond()/base,
				100*pt.PVContentionRatio(), pt.Stats.Get(sim.CtrPVContended), pt.Stats.Get(sim.CtrPVAcquires),
				100*pt.AllocContentionRatio(), pt.Stats.Get(sim.CtrAllocContended), pt.Stats.Get(sim.CtrAllocAcquires), pt.Variant)
		}
	}
	return nil
}
