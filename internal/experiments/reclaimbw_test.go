package experiments

import (
	"testing"

	"uvm/internal/sim"
)

// TestReclaimBWRunsOnAllConfigs smoke-tests the driver: every pipeline
// configuration completes the overcommitted workload with real paging.
func TestReclaimBWRunsOnAllConfigs(t *testing.T) {
	points, err := ReclaimBW(900)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(reclaimBWTunings()) {
		t.Fatalf("got %d points", len(points))
	}
	for _, pt := range points {
		if pt.Hist.Count() != reclaimBWProducers*900 {
			t.Fatalf("%s: lost samples: %+v", pt.Name, pt)
		}
		if pt.Pageouts() == 0 {
			t.Fatalf("%s: no paging happened — the workload no longer overcommits: %+v", pt.Name, pt)
		}
		if pt.Sim <= 0 || pt.Wall <= 0 || pt.SimBW() <= 0 {
			t.Fatalf("%s: degenerate measurement: %+v", pt.Name, pt)
		}
	}
}

// TestReclaimBWAsyncBeatsSyncSimBandwidth is the async pipeline's
// headline claim — overlapping cluster writes with the next reclaim scan
// takes the disk out of the scanning thread's critical path — asserted as
// the modelling property it is. SimBW itself (logged below) is computed
// off one shared clock that the producers advance in scheduler order, so
// the sync baseline alone swings 2-3x run to run; what does not depend on
// the scheduler is where each write command's disk time is charged, and
// how many commands it takes to page a page out:
//
//   - the sync daemon charges every cluster write to the machine clock
//     (no deferred command, an empty deferred-ns ledger);
//   - the async runs move their cluster writes to the disk.deferred_ns
//     ledger (only the direct-reclaim fallback still charges the clock);
//   - async clustering is as good as sync: no more write commands per
//     page out.
func TestReclaimBWAsyncBeatsSyncSimBandwidth(t *testing.T) {
	var pts [3]Point // sync-1w, async-1w, async-4w
	for i := range pts {
		var err error
		if pts[i], err = reclaimBWRun(profile, nil, reclaimBWTunings()[i], 1200); err != nil {
			t.Fatal(err)
		}
	}
	syncPt, asyncPt, multiPt := pts[0], pts[1], pts[2]
	for _, pt := range pts {
		// The ratios below are per page out and per write command: a run
		// that did neither has none, and must not pass by default.
		if pt.Pageouts() == 0 || pt.WriteCmds() == 0 {
			t.Fatalf("%s: no paging to take ratios of: %+v", pt.Name, pt)
		}
		t.Logf("%-9s sim %7.0f pg/s  %5d pageouts in %3d write commands (%.4f/page), %3.0f%% deferred, %4.0f us deferred disk time per page",
			pt.Name, pt.SimBW(), pt.Pageouts(), pt.WriteCmds(), pt.WritesPerPage(),
			100*pt.DeferredShare(), float64(pt.DiskBusy())/float64(pt.Pageouts())/1e3)
	}
	deferredCmds := func(pt Point) int64 { return pt.Stats.Get(sim.CtrDiskWritesDeferred) }
	deferredNs := func(pt Point) int64 { return int64(pt.DiskBusy()) }
	if deferredCmds(syncPt) != 0 || deferredNs(syncPt) != 0 {
		t.Errorf("sync pageout deferred %d writes (%d ns): every cluster write must be charged to the clock",
			deferredCmds(syncPt), deferredNs(syncPt))
	}
	for _, pt := range []Point{asyncPt, multiPt} {
		if pt.Stats.Get(sim.CtrPdAsyncClusters) == 0 {
			t.Fatalf("%s submitted no async clusters: %+v", pt.Name, pt)
		}
		if pt.DeferredShare() < 0.5 || deferredNs(pt) == 0 {
			t.Errorf("%s: only %.0f%% of write commands (%d ns) moved to the deferred ledger",
				pt.Name, 100*pt.DeferredShare(), deferredNs(pt))
		}
	}
	// Cluster sizes vary a little with where a round's target cuts the
	// queue; the parallel workers split each round's target four ways, so
	// their clusters are smaller by design and only logged.
	if asyncPt.WritesPerPage() > 1.25*syncPt.WritesPerPage() {
		t.Errorf("async pageout needs %.4f write commands per page, sync %.4f",
			asyncPt.WritesPerPage(), syncPt.WritesPerPage())
	}
}
