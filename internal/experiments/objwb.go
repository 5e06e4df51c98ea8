package experiments

import (
	"fmt"
	"io"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/uvm"
	"uvm/internal/vmapi"
	"uvm/internal/workload"
)

// ObjWB measures object writeback (msync) bandwidth, contrasting the
// stages of the object writeback pipeline on both backends:
//
//   - sync-1pg: the one-page-one-I/O baseline (WritebackCluster = 1) —
//     Msync puts one page per I/O, synchronously, in ascending index
//     order; every page pays the disk's command and transfer time on the
//     caller's clock.
//   - sync: the default machine — the same synchronous flight, but its
//     dirty pages leave as contiguous-index clusters (up to MaxCluster
//     pages per I/O), so the per-command cost and the I/O count collapse
//     while the caller still pays every I/O. sync-1pg → sync is the
//     clustering win.
//   - async-w4: the writeback engine with clustering disabled (1-page
//     clusters through a 4-deep in-flight window): sync-1pg's I/Os, but
//     overlapped — the caller pays only collection and the in-memory
//     copies, and waits for the completions.
//   - async-cluster: the full pipeline — clusters of up to 16 pages
//     through the window. sync → async-cluster is the overlap win.
//
// Each configuration runs the same workload on each backend: dirty every
// page of a region (vnode: a shared file mapping flushed to the file;
// aobj: a shared anonymous mapping flushed to swap), Msync, repeat. The
// simulated bandwidth (pages written back per simulated second) isolates
// the modelling claim — async overlap and clustering sustain strictly
// more writeback per simulated second; wall bandwidth shows the host
// effect.

const (
	// objWBRegionPages is the mapped region each round dirties and
	// flushes (1 MB).
	objWBRegionPages = 256
	// objWBRAMPages keeps the whole region resident: the experiment
	// measures writeback, not reclaim.
	objWBRAMPages = 2048
)

// objWBTunings returns the pipeline stages the experiment contrasts.
func objWBTunings() []NamedBooter {
	onePage := uvm.DefaultConfig()
	onePage.WritebackCluster = 1
	unclustered := writebackPipeline(4)
	unclustered.WritebackCluster = 1
	return []NamedBooter{
		tuned("sync-1pg", onePage),
		tuned("sync", uvm.DefaultConfig()),
		tuned("async-w4", unclustered),
		tuned("async-cluster", writebackPipeline(4)),
	}
}

// objWBTuning returns the stage of that name.
func objWBTuning(name string) NamedBooter {
	for _, nb := range objWBTunings() {
		if nb.Name == name {
			return nb
		}
	}
	panic("objwb: no tuning named " + name)
}

// objWBCycle is the experiment's request stream as a measured run on a
// prof machine: one client, whose every request is a round of
// dirty-everything then Msync over a region of the given backend that
// stays resident.
func objWBCycle(prof, backend string, boot vmapi.Booter, rounds int) workload.Run {
	const length = objWBRegionPages * param.PageSize
	var (
		p  vmapi.Process
		va param.VAddr
	)
	return workload.Run{
		Machine: vmapi.MachineConfig{
			RAMPages:  objWBRAMPages,
			SwapPages: 65536,
			FSPages:   4096,
			MaxVnodes: 16,
			Profile:   prof,
		},
		Boot:    boot,
		Clients: 1,
		Ops:     rounds,
		Setup: func(c *workload.Client) (err error) {
			if p, err = c.NewProcess("wb"); err != nil {
				return err
			}
			switch backend {
			case "vnode":
				fs := c.Sys.Machine().FS
				if err := fs.Create("/objwb", length, nil); err != nil {
					return err
				}
				vn, err := fs.Open("/objwb")
				if err != nil {
					return err
				}
				defer vn.Unref() // the mapping holds its own reference
				va, err = p.Mmap(0, length, param.ProtRW, vmapi.MapShared, vn, 0)
				return err
			case "aobj":
				va, err = p.Mmap(0, length, param.ProtRW, vmapi.MapAnon|vmapi.MapShared, nil, 0)
				return err
			}
			return fmt.Errorf("objwb: unknown backend %q", backend)
		},
		Op: func(*workload.Client, int) error {
			if err := p.TouchRange(va, length, true); err != nil {
				return err
			}
			return p.Msync(va, length)
		},
	}
}

// objWBRun measures one tuning on one backend.
func objWBRun(prof, backend string, nb NamedBooter, rounds int) (Point, error) {
	return measure(nb.Name, backend, objWBCycle(prof, backend, nb.Boot, rounds))
}

// ObjWB runs every pipeline configuration on both backends.
func ObjWB(rounds int) ([]Point, error) {
	var points []Point
	for _, backend := range []string{"vnode", "aobj"} {
		pts, err := sweep(objWBTunings(), func(nb NamedBooter) (Point, error) {
			return objWBRun(profile, backend, nb, rounds)
		})
		if err != nil {
			return nil, err
		}
		points = append(points, pts...)
	}
	return points, nil
}

// ReportObjWB renders the writeback bandwidth table.
func ReportObjWB(w io.Writer, rounds int) error {
	header(w, "ObjWB: object writeback (msync) bandwidth, one-page vs clustered, sync vs async")
	fmt.Fprintf(w, "%d rounds x %d-page region per config; vnode pages flush to the file, aobj pages to swap\n",
		rounds, objWBRegionPages)
	points, err := ObjWB(rounds)
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Fprintf(w, "%-6s %-14s %7d pageouts  sim %10.0f pg/s  wall %10.0f pg/s  disk-busy %9s  (%d wb clusters)\n",
			pt.Variant, pt.Name, pt.Pageouts(), pt.SimBW(), pt.WallBW(), pt.DiskBusy(),
			pt.Stats.Get(sim.CtrObjWbClusters))
	}
	fmt.Fprintln(w, "(sync-1pg puts one page per I/O on the caller's clock; sync, the default, merges")
	fmt.Fprintln(w, " contiguous pages into one command — the clustering win. async-w4 overlaps")
	fmt.Fprintln(w, " sync-1pg's I/Os in a bounded window and async-cluster the merged ones — the")
	fmt.Fprintln(w, " overlap win; disk-busy is the device time of the overlapped writes, which")
	fmt.Fprintln(w, " clustering collapses too.)")
	return nil
}
