package uvm

import (
	"testing"

	"uvm/internal/param"
	"uvm/internal/sim"
	"uvm/internal/vmapi"
)

// TestCachedCounterHandlesFeedStats guards the wiring between the
// cached sim.Counter handles resolved at boot and the string-named
// stats the reports read: a typo in one of the names at the BootConfig
// resolution site would silently split a counter into two cells, with
// the hot paths bumping one and the reports reading the other.
func TestCachedCounterHandlesFeedStats(t *testing.T) {
	s, m := bootTest(t, 256)
	defer s.Shutdown()

	handles := []struct {
		name string
		ctr  sim.Counter
	}{
		{sim.CtrFaults, s.ctrFaults},
		{sim.CtrFaultsRead, s.ctrFaultsRead},
		{sim.CtrFaultsWrite, s.ctrFaultsWrite},
		{"uvm.anon.alloc", s.ctrAnonAlloc},
		{"uvm.anon.live", s.ctrAnonLive},
		{"uvm.amap.alloc", s.ctrAmapAlloc},
		{"uvm.amap.live", s.ctrAmapLive},
		{"uvm.mapentry.alloc", s.ctrEntryAlloc},
		{"uvm.mapentry.live", s.ctrEntryLive},
		{"uvm.lookahead.mapped", s.ctrLookaheadMapped},
		{"uvm.cow.copies", s.ctrCowCopies},
		{"uvm.map.lockheld_ns", s.ctrMapLockHeld},
		{"uvm.map.lockheld_max_ns", s.ctrMapLockHeldMax},
		{sim.CtrPageIns, s.ctrPageIns},
		{"uvm.anon.pagein", s.ctrAnonPageIns},
		{sim.CtrPageinClusters, s.ctrPageinClusters},
		{sim.CtrPageinClustered, s.ctrPageinClustered},
		{sim.CtrPageOuts, s.ctrPageOuts},
		{sim.CtrObjWbClusters, s.ctrObjWbClusters},
		{sim.CtrObjWbPages, s.ctrObjWbPages},
		{sim.CtrPdRounds, s.ctrPdRounds},
	}
	for _, h := range handles {
		before := m.Stats.Get(h.name)
		h.ctr.Inc()
		if got := m.Stats.Get(h.name); got != before+1 {
			t.Errorf("counter handle for %q: stat moved %d -> %d, want +1", h.name, before, got)
		}
	}

	// The handles disk and swap keep are out of reach from here, so their
	// names — spelled out as the reports and bench/uvmperf read them — are
	// checked by what a trip to swap and back must move.
	before := m.Stats.Snapshot()
	p := newProc(t, s, "swapper")
	const pages = 512 // 2x RAM: the sweep pages itself out, the read-back pages it in
	va, err := p.Mmap(0, pages*param.PageSize, param.ProtRW, vmapi.MapAnon|vmapi.MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sweepPattern(t, p, va, pages)
	after := m.Stats.Snapshot()
	for _, name := range []string{
		"disk.reads", "disk.pages.read", "disk.writes", "disk.pages.written", "disk.seeks",
		"swap.ios", "vm.pageins", "uvm.anon.pagein", "uvm.pagein.clusters", "uvm.pagein.clustered",
	} {
		if after[name] <= before[name] {
			t.Errorf("stat %q did not move over a swap round trip (%d -> %d)", name, before[name], after[name])
		}
	}
}
