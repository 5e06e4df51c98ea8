package experiments

import (
	"fmt"
	"io"
	"runtime"

	"uvm/internal/bsdvm"
	"uvm/internal/disk"
	"uvm/internal/param"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

// Pressure measures allocation tail latency under sustained memory
// pressure — the experiment that motivates the asynchronous pagedaemon.
// N goroutines, each with a private anonymous region, together demand
// several times physical memory, so every allocation rides on reclaim.
//
// With inline reclaim (the pre-daemon design, and what BSD VM still
// does), an allocating goroutine that finds the free list empty runs a
// whole reclaim batch itself — clustering, swap-slot allocation, pageout
// I/O — so an unlucky access pays for dozens of pageouts and the tail
// (p99/max) stretches far beyond the median. With the asynchronous
// daemon, the low-water kick starts reclaim before exhaustion and a
// blocked allocator only waits for the round in flight, so the tail
// tightens — visibly so once there are enough goroutines that the
// daemon's round amortises over many waiters (≥4 on a multicore host).

const (
	// overcommitRAMPages keeps the pressure and reclaimbw machine small
	// enough that the clients overcommit it several times over, so
	// reclaim runs for the whole experiment.
	overcommitRAMPages = 1024 // 4 MB
	// anonCycleRegionPages is each client's private region: 2 MB, so two
	// clients already exceed RAM.
	anonCycleRegionPages = 512
)

// overcommitMachine is the small machine pressure and reclaimbw run on.
func overcommitMachine(prof string, swapPlan *disk.FaultPlan) vmapi.MachineConfig {
	return vmapi.MachineConfig{
		RAMPages:      overcommitRAMPages,
		SwapPages:     65536,
		FSPages:       1024,
		MaxVnodes:     16,
		Profile:       prof,
		SwapFaultPlan: swapPlan,
	}
}

// anonCycle is the request stream pressure and reclaimbw share, as a
// measured run: each client maps a private anonymous region and cycles
// through it touching pages for writing, every touch timed. The regions
// all stay mapped for the whole measurement, so the combined demand
// overcommits RAM regardless of how the host schedules the clients.
func anonCycle(mcfg vmapi.MachineConfig, boot vmapi.Booter, clients, accesses int) workload.Run {
	type region struct {
		p  vmapi.Process
		va param.VAddr
	}
	regions := make([]region, clients)
	return workload.Run{
		Machine: mcfg,
		Boot:    boot,
		Clients: clients,
		Ops:     accesses,
		Setup: func(c *workload.Client) error {
			p, err := c.NewProcess(fmt.Sprintf("cycle%d", c.ID))
			if err != nil {
				return err
			}
			va, err := p.Mmap(0, anonCycleRegionPages*param.PageSize, param.ProtRW,
				vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
			regions[c.ID] = region{p, va}
			return err
		},
		Op: func(c *workload.Client, i int) error {
			r := regions[c.ID]
			return c.Access(r.p, r.va+param.VAddr(i%anonCycleRegionPages)*param.PageSize, true)
		},
	}
}

// Pressure runs the tail-latency experiment on one booter for each
// goroutine count. Each worker cycles through its region touching pages
// for writing; each touch's wall-clock latency is recorded.
func Pressure(name string, boot vmapi.Booter, workers []int, accessesPerWorker int) ([]Point, error) {
	return sweep(workers, func(n int) (Point, error) {
		return measure(name, "", anonCycle(overcommitMachine("", nil), boot, n, accessesPerWorker))
	})
}

// pressureBooters returns the three configurations the experiment
// contrasts: the big-lock baseline, UVM with the pre-daemon inline
// reclaim, and UVM with the asynchronous pagedaemon.
func pressureBooters() []NamedBooter {
	return []NamedBooter{
		{"bsdvm", bsdvm.Boot},
		{"uvm-inline", uvmDeterministic},
		{"uvm-daemon", uvm.Boot},
	}
}

// ReportPressure renders tail latency for every system at each goroutine
// count.
func ReportPressure(w io.Writer, workers []int, accessesPerWorker int) error {
	header(w, "Pressure: allocation tail latency under reclaim (wall clock)")
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d  RAM=%d pages, each goroutine cycles %d pages\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), overcommitRAMPages, anonCycleRegionPages)
	for _, nb := range pressureBooters() {
		points, err := Pressure(nb.Name, nb.Boot, workers, accessesPerWorker)
		if err != nil {
			return err
		}
		for _, pt := range points {
			fmt.Fprintf(w, "%-11s %2d goroutines: p50 %9s  p99 %9s  max %9s  (%d accesses)\n",
				pt.Name, pt.Clients, pt.P50(), pt.P99(), pt.Max(), pt.Hist.Count())
		}
	}
	fmt.Fprintln(w, "(uvm-daemon's low-water wakeup reclaims ahead of allocators; with enough")
	fmt.Fprintln(w, " goroutines its p99 drops below uvm-inline, which pays whole reclaim")
	fmt.Fprintln(w, " batches inside unlucky allocations)")
	return nil
}
