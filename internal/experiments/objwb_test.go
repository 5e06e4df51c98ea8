package experiments

import (
	"testing"

	"uvm/internal/sim"
)

// TestObjWBRunsOnAllConfigs smoke-tests the driver: every configuration
// completes the dirty-msync rounds on both backends with real writeback.
func TestObjWBRunsOnAllConfigs(t *testing.T) {
	points, err := ObjWB(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(objWBTunings()) {
		t.Fatalf("got %d points", len(points))
	}
	for _, pt := range points {
		if pt.Pageouts() != 2*objWBRegionPages {
			t.Fatalf("%s/%s: wrote %d pages, want %d (msync must flush every dirty page exactly once per round)",
				pt.Variant, pt.Name, pt.Pageouts(), 2*objWBRegionPages)
		}
		if pt.Sim <= 0 || pt.Wall <= 0 || pt.SimBW() <= 0 {
			t.Fatalf("%s/%s: degenerate measurement: %+v", pt.Variant, pt.Name, pt)
		}
	}
}

// TestObjWBAsyncBeatsSyncSimBandwidth is the PR's headline claim for the
// object side: pushing msync's dirty pages through the asynchronous
// clustered window sustains strictly higher writeback bandwidth than the
// synchronous one-page-one-I/O baseline (sync-1pg). Simulated bandwidth
// is a modelling property (the sync path charges every page's disk time
// to the caller's clock, the async path overlaps it), so the assertion
// holds on any host, single-core CI included. The clustering half of the
// win needs no overlap: the default synchronous flush (sync) already
// merges contiguous pages, which shows in the scheduler-independent
// write commands per page.
func TestObjWBAsyncBeatsSyncSimBandwidth(t *testing.T) {
	for _, backend := range []string{"vnode", "aobj"} {
		pts := make(map[string]Point)
		for _, name := range []string{"sync-1pg", "sync", "async-cluster"} {
			pt, err := objWBRun(profile, backend, objWBTuning(name), 4)
			if err != nil {
				t.Fatal(err)
			}
			pts[name] = pt
		}
		syncPt, clusteredPt, asyncPt := pts["sync-1pg"], pts["sync"], pts["async-cluster"]
		t.Logf("%s: write commands per page sync-1pg %.3f, sync %.3f",
			backend, syncPt.WritesPerPage(), clusteredPt.WritesPerPage())
		if syncPt.WritesPerPage() != 1 {
			t.Errorf("%s: one-page baseline issued %.3f write commands per page, want 1",
				backend, syncPt.WritesPerPage())
		}
		if clusteredPt.WritesPerPage()*4 > syncPt.WritesPerPage() {
			t.Errorf("%s: synchronous clustering ineffective: %.3f write commands per page against %.3f one-page",
				backend, clusteredPt.WritesPerPage(), syncPt.WritesPerPage())
		}
		t.Logf("%s: sim bandwidth sync-1pg %.0f pg/s, async-cluster %.0f pg/s (disk-busy %v)",
			backend, syncPt.SimBW(), asyncPt.SimBW(), asyncPt.DiskBusy())
		clusters := asyncPt.Stats.Get(sim.CtrObjWbClusters)
		if clusters == 0 {
			t.Fatalf("%s: async run submitted no writeback clusters: %+v", backend, asyncPt)
		}
		if asyncPt.SimBW() <= syncPt.SimBW() {
			t.Errorf("%s: async clustered writeback bandwidth (%.0f pg/s) not above sync baseline (%.0f pg/s)",
				backend, asyncPt.SimBW(), syncPt.SimBW())
		}
		// Clustering merges contiguous pages into one command, so the
		// async run must issue far fewer cluster I/Os than pages.
		if clusters*4 > asyncPt.Pageouts() {
			t.Errorf("%s: clustering ineffective: %d clusters for %d pages",
				backend, clusters, asyncPt.Pageouts())
		}
	}
}
