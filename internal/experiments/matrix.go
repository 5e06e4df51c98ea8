package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"uvm/internal/bsdvm"
	"uvm/internal/disk"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

// The machine-profile matrix: the same workloads run across every named
// machine profile, optionally under an injected fault schedule, one
// report per cell. The paper measured one machine (hdd97); the matrix is
// how every conclusion built on top of it — clustering wins, overlap
// wins, pipeline error handling — gets re-checked when the disk model is
// swapped for a modern one, and how the fault plans are exercised
// systematically rather than ad hoc per test.
//
// Every cell ends with a consistency sweep: after Shutdown the machine
// must have zero Busy pages. A leaked Busy page means some error path
// kept a claim it should have released, and the cell fails even if the
// workload itself reported success.

// MatrixCell is one (workload, profile, fault-schedule) run of the
// matrix: its report text, its end-of-run Busy-page sweep, and its
// outcome.
type MatrixCell struct {
	Workload   string
	Profile    string
	Faults     bool   // ran with the injected fault schedule on swap
	Report     string // per-cell report (archived by CI)
	BusyLeaked int    // Busy pages found after Shutdown; must be 0
	Err        error
}

// Name returns the cell's report-file-friendly identifier.
func (c MatrixCell) Name() string {
	name := c.Workload + "-" + c.Profile
	if c.Faults {
		name += "-faults"
	}
	return name
}

// MatrixWorkloads returns the matrix's workload names in canonical
// order: the boot/exec scenario from internal/workload, the reclaim
// bandwidth cell, the object writeback cell, the multi-tenant traffic
// cell, and the allocator-layout cell (per-CPU caches vs single pool).
func MatrixWorkloads() []string {
	return []string{"scenario", "reclaim", "objwb", "traffic", "alloc"}
}

// MatrixFaultPlan returns the fault schedule the matrix's fault cells
// install on the swap disk: a torn cluster write, then transient write
// and read errors, all count-limited so the system has to absorb each
// class and then recover. Fresh per cell — plans hold per-device trigger
// state.
func MatrixFaultPlan() *disk.FaultPlan {
	return disk.NewFaultPlan(
		disk.FaultRule{Kind: disk.FaultTornWrite, Block: disk.BlockAny, AfterOps: 8, Count: 3, TornPages: 2},
		disk.FaultRule{Kind: disk.FaultWriteError, Block: disk.BlockAny, AfterOps: 15, Count: 2},
		disk.FaultRule{Kind: disk.FaultReadError, Block: disk.BlockAny, AfterOps: 10, Count: 3},
	)
}

// RunMatrix runs every workload × profile cell and, with withFaults, one
// fault-injected reclaim cell per profile. Cells run sequentially (each
// boots its own machine); a failing cell doesn't stop the rest.
func RunMatrix(workloads, profiles []string, withFaults, quick bool) []MatrixCell {
	var cells []MatrixCell
	for _, wl := range workloads {
		for _, prof := range profiles {
			cells = append(cells, runMatrixCell(wl, prof, false, quick))
		}
	}
	if withFaults {
		for _, prof := range profiles {
			cells = append(cells, runMatrixCell("reclaim", prof, true, quick))
		}
	}
	return cells
}

func runMatrixCell(wl, prof string, faults, quick bool) (c MatrixCell) {
	c = MatrixCell{Workload: wl, Profile: prof, Faults: faults}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "matrix cell %s: workload=%s profile=%s faults=%v\n",
		c.Name(), wl, prof, faults)
	defer func() {
		if r := recover(); r != nil {
			c.Err = fmt.Errorf("matrix: cell %s panicked: %v", c.Name(), r)
		}
		if c.Err != nil {
			fmt.Fprintf(&buf, "FAILED: %v\n", c.Err)
		} else {
			fmt.Fprintf(&buf, "ok (busy sweep clean)\n")
		}
		c.Report = buf.String()
	}()

	// A cell writes its report lines to buf; every machine it boots is
	// swept for Busy pages, and a leak comes back as a *workload.LeakError.
	switch wl {
	case "scenario":
		c.Err = matrixScenario(prof, &buf)
	case "reclaim":
		c.Err = matrixReclaim(prof, faults, quick, &buf)
	case "objwb":
		c.Err = matrixObjWB(prof, quick, &buf)
	case "traffic":
		c.Err = matrixTraffic(prof, quick, &buf)
	case "alloc":
		c.Err = matrixAlloc(prof, &buf)
	default:
		c.Err = fmt.Errorf("matrix: unknown workload %q (valid: %v)", wl, MatrixWorkloads())
	}
	var leak *workload.LeakError
	if errors.As(c.Err, &leak) {
		c.BusyLeaked = leak.Busy
	}
	return c
}

// matrixScenario boots both VM systems on the profile's machine preset
// and runs the multi-user boot scenario — the Table 1 structural
// workload, not a request loop, so it is the one cell that is not a
// measured run and sweeps for itself — reporting each system's map-entry
// census and simulated time.
func matrixScenario(prof string, w io.Writer) error {
	cfg, err := vmapi.ProfileConfig(prof)
	if err != nil {
		return err
	}
	for _, boot := range []NamedBooter{{"bsdvm", bsdvm.Boot}, {"uvm", uvm.Boot}} {
		mach := vmapi.NewMachine(cfg)
		sys := boot.Boot(mach)
		procs, err := workload.MultiUserBoot(sys)
		if err == nil {
			fmt.Fprintf(w, "%-6s multi-user boot: %d procs, kernel entries %d, total entries %d, sim time %v\n",
				boot.Name, len(procs), sys.KernelMapEntries(), sys.TotalMapEntries(), mach.Clock.Now())
		}
		for _, p := range procs {
			p.Exit()
		}
		sys.Shutdown()
		if n := len(mach.Mem.BusyPages()); n > 0 {
			err = errors.Join(err, &workload.LeakError{Busy: n})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// matrixReclaim runs the full reclaim pipeline (async clustered pageout,
// parallel workers, clustered pagein) under overcommit — optionally with
// the injected fault schedule on the swap disk, in which case failed
// accesses are counted rather than fatal and the cell additionally
// reports how often each fault rule fired.
func matrixReclaim(prof string, faults, quick bool, w io.Writer) error {
	var plan *disk.FaultPlan
	if faults {
		plan = MatrixFaultPlan()
	}
	// Each producer must touch more pages than its share of RAM or the
	// cell never pages out: 4 producers × 700 accesses over 512-page
	// regions demands 2048 pages of the 1024-page machine.
	pt, err := reclaimBWRun(prof, plan, tuned("async-4w+pgin", reclaimPipeline(4)), iters(quick, 700, 1500))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reclaim async-4w+pgin: %d accesses, %d pageouts, sim %9.0f pg/s (async clusters %d, pagein rides %d, io errors %d)\n",
		pt.Hist.Count(), pt.Pageouts(), pt.SimBW(), pt.Stats.Get(sim.CtrPdAsyncClusters),
		pt.Stats.Get(sim.CtrPageinClustered), pt.Errors)
	if plan != nil {
		for i, kind := range []disk.FaultKind{disk.FaultTornWrite, disk.FaultWriteError, disk.FaultReadError} {
			fmt.Fprintf(w, "fault rule %-11s fired %d times\n", kind, plan.Fired(i))
		}
	}
	return nil
}

// matrixObjWB runs the clustered asynchronous object-writeback pipeline
// (msync rounds over a shared file mapping) on the profile.
func matrixObjWB(prof string, quick bool, w io.Writer) error {
	pt, err := objWBRun(prof, "vnode", tuned("async-cluster", writebackPipeline(4)), iters(quick, 2, 6))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "objwb vnode async-cluster: %d msyncs, %d pageouts, sim %10.0f pg/s, disk-busy %v (%d wb clusters)\n",
		pt.Ops, pt.Pageouts(), pt.SimBW(), pt.DiskBusy(), pt.Stats.Get(sim.CtrObjWbClusters))
	return nil
}

// matrixTraffic runs the multi-tenant Zipf traffic workload — quick
// shape, one mid-range worker count — on both systems, reporting each
// system's fault-latency quantiles and reclaim-interference count.
func matrixTraffic(prof string, quick bool, w io.Writer) error {
	cfg := TrafficConfigFor(true) // matrix cells always use the quick shape
	if !quick {
		cfg.OpsPerWorker *= 4
	}
	for _, nb := range TrafficBooters() {
		pt, err := trafficRun(prof, nb, cfg, 4)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "traffic %-6s 4 workers: %d ops %d faults  p50 %s p99 %s p999 %s  reclaim-interference %d\n",
			nb.Name, pt.Ops, pt.Stats.Get(sim.CtrFaults), pt.P50(), pt.P99(), pt.P999(),
			workload.ReclaimInterference(pt.Stats))
	}
	return nil
}

// matrixAlloc contrasts the two allocator layouts under the parallel
// fault workload at 8 goroutines: per-CPU free-page caches (8 magazines)
// vs the single global pool (AllocCaches=0). Wall-clock throughput is
// host-dependent, but the contended share of allocation-path lock
// acquisitions is the structural story: the magazines take it toward
// zero, the single pool concentrates every fault on the same shard
// locks. (The workload is already quick-sized; no quick variant.)
func matrixAlloc(prof string, w io.Writer) error {
	for _, layout := range []struct {
		name   string
		caches int
	}{{"cached-8", 8}, {"single-pool", 0}} {
		pt, err := scalingRun(prof, "uvm", uvm.Boot, 8, layout.caches)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "alloc %-11s 8 goroutines: %9.0f faults/s  alloc-contention %5.2f%% (%d/%d)\n",
			layout.name, pt.PerSecond(), 100*pt.AllocContentionRatio(),
			pt.Stats.Get(sim.CtrAllocContended), pt.Stats.Get(sim.CtrAllocAcquires))
	}
	return nil
}

// ReportMatrix runs the full matrix and renders the summary table;
// per-cell reports go through emit (cell name → report text), which
// drivers use to archive one file per cell. Returns an error if any cell
// failed.
func ReportMatrix(w io.Writer, profiles []string, withFaults, quick bool,
	emit func(name, report string) error) error {
	if len(profiles) == 0 {
		profiles = sim.Profiles()
	}
	header(w, "Matrix: workload × machine profile (+ fault schedules)")
	cells := RunMatrix(MatrixWorkloads(), profiles, withFaults, quick)
	failed := 0
	for _, c := range cells {
		status := "ok"
		if c.Err != nil {
			status = "FAIL: " + c.Err.Error()
			failed++
		}
		fmt.Fprintf(w, "%-24s busy-leaked=%d  %s\n", c.Name(), c.BusyLeaked, status)
		if emit != nil {
			if err := emit(c.Name(), c.Report); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("matrix: %d of %d cells failed", failed, len(cells))
	}
	return nil
}
