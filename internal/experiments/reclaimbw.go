package experiments

import (
	"fmt"
	"io"
	"runtime"

	"uvm/internal/disk"
	"uvm/internal/sim"
	"uvm/internal/uvm"
)

// ReclaimBW measures sustained pageout bandwidth and fault latency under
// heavy overcommit, contrasting the reclaim I/O pipeline's stages:
//
//   - sync-1w: the PR-2 baseline — one pagedaemon that blocks on every
//     cluster write; reclaim bandwidth is bounded by one synchronous I/O
//     stream.
//   - async-1w: asynchronous cluster pageout — the daemon submits each
//     cluster into the per-device in-flight window and overlaps the next
//     inactive-queue scan with the writes; completions free the pages.
//   - async-4w: async pageout plus four parallel reclaim workers, each
//     scanning a disjoint range of the sharded page queues.
//   - async-4w+pgin: the full pipeline, adding clustered pagein — a
//     swap-backed fault drags adjacent allocated slots in with one I/O.
//
// Two bandwidth figures are reported, both over the timed phase — the
// pages out by the time the last producer returned, over the time to that
// point. Simulated bandwidth (pageouts per simulated second) isolates the modelling claim: a synchronous daemon
// charges every cluster's positioning + transfer time to the machine's
// one virtual clock, while overlapped writes charge nothing to the
// scanning thread — so async reclaim sustains strictly more pageout per
// simulated second. Wall bandwidth (pageouts per wall-clock second)
// additionally shows the host-parallelism effect of the worker shards,
// which needs real cores to be visible (like the scaling experiment).

// reclaimBWProducers is the client count: four producers of 2 MB regions
// demand 8 MB of the 4 MB machine.
const reclaimBWProducers = 4

// reclaimBWTunings returns the pipeline stages the experiment contrasts.
func reclaimBWTunings() []NamedBooter {
	async1, async4 := reclaimPipeline(4), reclaimPipeline(4)
	async1.ReclaimWorkers, async1.PageinCluster = 0, 1
	async4.PageinCluster = 1
	return []NamedBooter{
		tuned("sync-1w", uvm.DefaultConfig()),
		tuned("async-1w", async1),
		tuned("async-4w", async4),
		tuned("async-4w+pgin", reclaimPipeline(4)),
	}
}

// reclaimBWRun measures one tuning on a prof machine: the anonCycle
// producers overcommit RAM, so every allocation rides on reclaim;
// per-access wall latency and the run's pageout counters are collected.
// With a fault plan on the swap disk, access errors don't abort the run
// (see workload.Run.Op): the cell is probing whether the system stays
// consistent, not whether the access succeeds, so failed accesses are
// counted (the point's Errors) and the producers keep going.
func reclaimBWRun(prof string, swapPlan *disk.FaultPlan, nb NamedBooter, accessesPerProducer int) (Point, error) {
	return measure(nb.Name, "", anonCycle(overcommitMachine(prof, swapPlan), nb.Boot, reclaimBWProducers, accessesPerProducer))
}

// ReclaimBW runs every pipeline configuration.
func ReclaimBW(accessesPerProducer int) ([]Point, error) {
	return sweep(reclaimBWTunings(), func(nb NamedBooter) (Point, error) {
		return reclaimBWRun(profile, nil, nb, accessesPerProducer)
	})
}

// ReportReclaimBW renders the bandwidth table.
func ReportReclaimBW(w io.Writer, accessesPerProducer int) error {
	header(w, "ReclaimBW: pageout bandwidth, sync vs async vs parallel reclaim")
	fmt.Fprintf(w, "GOMAXPROCS=%d NumCPU=%d  RAM=%d pages, %d producers x %d-page regions\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), overcommitRAMPages,
		reclaimBWProducers, anonCycleRegionPages)
	points, err := ReclaimBW(accessesPerProducer)
	if err != nil {
		return err
	}
	for _, pt := range points {
		fmt.Fprintf(w, "%-14s %7d pageouts  sim %9.0f pg/s  wall %9.0f pg/s  fault p50 %9s p99 %9s  (async clusters %d, pagein rides %d)\n",
			pt.Name, pt.Pageouts(), pt.SimBW(), pt.WallBW(), pt.P50(), pt.P99(),
			pt.Stats.Get(sim.CtrPdAsyncClusters), pt.Stats.Get(sim.CtrPageinClustered))
	}
	fmt.Fprintln(w, "(sync-1w charges every cluster write to the scanning thread's clock; the")
	fmt.Fprintln(w, " async configs overlap those writes with the next scan, so their simulated")
	fmt.Fprintln(w, " bandwidth is strictly higher. Worker and wall-clock effects need real cores.)")
	return nil
}
